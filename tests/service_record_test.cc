// Defensive-parsing tests for the feed wire format (src/service/record.*):
// the parser must accept exactly the documented grammar and turn every
// other byte sequence into kMalformed (kOversize past the line bound) with
// a diagnostic — never a crash, never a record from a bad line.
#include "src/service/record.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/service/stream_feed.h"

namespace pjsched::service {
namespace {

ParseStatus parse(std::string_view line, JobRecord* rec = nullptr,
                  const char** error = nullptr) {
  JobRecord scratch;
  return parse_record_view(line, rec != nullptr ? rec : &scratch, error);
}

JobRecord must_parse(const std::string& line) {
  JobRecord rec;
  const char* error = nullptr;
  EXPECT_EQ(parse(line, &rec, &error), ParseStatus::kRecord)
      << line << " -> " << (error != nullptr ? error : "");
  return rec;
}

void must_reject(const std::string& line,
                 ParseStatus status = ParseStatus::kMalformed) {
  const char* error = nullptr;
  EXPECT_EQ(parse(line, nullptr, &error), status) << line;
  EXPECT_TRUE(error != nullptr && *error != '\0') << line;
}

TEST(ServiceRecord, ParsesMinimalAndFullRecords) {
  const JobRecord minimal = must_parse("job acme 4");
  EXPECT_EQ(minimal.tenant, "acme");
  EXPECT_DOUBLE_EQ(minimal.work, 4.0);
  EXPECT_EQ(minimal.fanout, 1u);
  EXPECT_DOUBLE_EQ(minimal.weight, 1.0);
  EXPECT_EQ(minimal.deadline_ms, 0u);

  const JobRecord full =
      must_parse("job t-1.a_b 2.5 fanout=8 weight=0.25 deadline_ms=900 id=7");
  EXPECT_EQ(full.tenant, "t-1.a_b");
  EXPECT_DOUBLE_EQ(full.work, 2.5);
  EXPECT_EQ(full.fanout, 8u);
  EXPECT_DOUBLE_EQ(full.weight, 0.25);
  EXPECT_EQ(full.deadline_ms, 900u);
  EXPECT_EQ(full.client_id, 7u);
}

TEST(ServiceRecord, BlankLinesAndCommentsAreEmpty) {
  EXPECT_EQ(parse(""), ParseStatus::kEmpty);
  EXPECT_EQ(parse("   \t "), ParseStatus::kEmpty);
  EXPECT_EQ(parse("# a comment"), ParseStatus::kEmpty);
  // A trailing comment after a record is fine.
  EXPECT_EQ(parse("job a 1 # why"), ParseStatus::kRecord);
}

TEST(ServiceRecord, HostileInputIsMalformedNeverFatal) {
  must_reject("jib a 1");                      // unknown verb
  must_reject("job");                          // missing fields
  must_reject("job a");                        // missing work
  must_reject("job a 0");                      // zero work
  must_reject("job a -3");                     // negative work
  must_reject("job a 1e400");                  // overflow -> inf
  must_reject("job a nan");                    // non-finite
  must_reject("job a 1x");                     // trailing junk in number
  must_reject("job a/etc 1");                  // bad tenant charset
  must_reject("job " + std::string(kMaxTenantBytes + 1, 'a') + " 1");
  must_reject("job a 1 fanout=0");             // fanout below range
  must_reject("job a 1 fanout=99999999");      // fanout above range
  must_reject("job a 1 fanout=-2");            // not a uint
  must_reject("job a 1 weight=0");             // weight must be positive
  must_reject("job a 1 deadline_ms=0");        // deadline_ms must be >= 1
  must_reject("job a 1 deadline_ms=99999999999");  // above one hour
  must_reject("job a 1 nice=true");            // unknown key
  must_reject("job a 1 =v");                   // empty key
  must_reject("job a 1 k=");                   // empty value
  must_reject("job a 1 orphan");               // bare token
  must_reject(std::string(kMaxLineBytes + 1, 'a'), ParseStatus::kOversize);
}

TEST(ServiceRecord, WorkBoundsAreInclusive) {
  EXPECT_DOUBLE_EQ(must_parse("job a 1e9").work, kMaxWork);
  must_reject("job a 1.0000001e9");
}

TEST(ServiceRecord, FormatRoundTrips) {
  JobRecord rec;
  rec.tenant = "roundtrip";
  rec.work = 12.5;
  rec.fanout = 4;
  rec.weight = 2.0;
  rec.deadline_ms = 250;
  rec.client_id = 99;
  const JobRecord back = must_parse(format_record(rec));
  EXPECT_EQ(back.tenant, rec.tenant);
  EXPECT_DOUBLE_EQ(back.work, rec.work);
  EXPECT_EQ(back.fanout, rec.fanout);
  EXPECT_DOUBLE_EQ(back.weight, rec.weight);
  EXPECT_EQ(back.deadline_ms, rec.deadline_ms);
  EXPECT_EQ(back.client_id, rec.client_id);

  // Defaults are omitted from the wire form.
  EXPECT_EQ(format_record(JobRecord{"t", 1.0, 1, 1.0, 0, 0}), "job t 1");
}

// ---------------------------------------------------------------------------
// Zero-copy batched parsing: parse_batch over an IngestBuffer must classify
// a byte stream identically no matter where the read boundaries fall.

/// One classified feed event, with enough of the payload captured to prove
/// the parse was not just the same status but the same parse.
struct FeedEvent {
  ParseStatus status = ParseStatus::kEmpty;
  std::string tenant;
  double work = 0.0;
  std::uint64_t id = 0;
  std::string sample;  // the offending line (malformed/oversize)

  bool operator==(const FeedEvent& o) const {
    return status == o.status && tenant == o.tenant && work == o.work &&
           id == o.id && sample == o.sample;
  }
};

/// Feeds `corpus` through an IngestBuffer in reads of at most `chunk`
/// bytes, draining parse_batch after every read — exactly the io-shard
/// loop's structure.
std::vector<FeedEvent> feed_chunked(std::string_view corpus,
                                    std::size_t chunk) {
  IngestBuffer buf;
  std::vector<ParsedRecord> entries(8);
  std::vector<FeedEvent> events;
  std::size_t off = 0;
  while (off < corpus.size()) {
    const std::size_t n =
        std::min({chunk, corpus.size() - off, buf.tail_capacity()});
    std::memcpy(buf.tail(), corpus.data() + off, n);
    buf.commit(n);
    off += n;
    for (;;) {
      const BatchParse bp = buf.parse({entries.data(), entries.size()});
      if (bp.produced == 0 && bp.consumed == 0) break;
      for (std::size_t i = 0; i < bp.produced; ++i) {
        FeedEvent e;
        e.status = entries[i].status;
        if (entries[i].status == ParseStatus::kRecord) {
          e.tenant = entries[i].record.tenant;
          e.work = entries[i].record.work;
          e.id = entries[i].record.client_id;
        } else {
          e.sample = std::string(entries[i].line);
        }
        events.push_back(std::move(e));
      }
    }
  }
  EXPECT_FALSE(buf.has_partial()) << "chunk=" << chunk;
  return events;
}

TEST(ServiceRecordBatch, EveryReadBoundarySplitClassifiesIdentically) {
  // The full hostile corpus — every malformed case the per-line tests pin,
  // interleaved with good records, comments, commands, an in-buffer
  // oversize line, and a line that overflows the whole read buffer — so
  // every parser state can be cut at every read boundary.
  const std::vector<std::string> lines = {
      "job acme 4",
      "jib a 1",
      "job",
      "job a",
      "job a 0",
      "job a -3",
      "# a comment",
      "job t-1.a_b 2.5 fanout=8 weight=0.25 deadline_ms=900 id=7",
      "job a 1e400",
      "job a nan",
      "job a 1x",
      "job a/etc 1",
      "job " + std::string(kMaxTenantBytes + 1, 'a') + " 1",
      "",
      "   \t ",
      "job a 1 fanout=0",
      "job a 1 fanout=99999999",
      "job a 1 fanout=-2",
      "job a 1 weight=0",
      "job a 1 deadline_ms=0",
      "job a 1 deadline_ms=99999999999",
      "metrics",
      "job a 1 nice=true",
      "job a 1 =v",
      "job a 1 k=",
      "job a 1 orphan",
      "metrics now",
      std::string(kMaxLineBytes + 1, 'a'),      // oversize, complete in-buffer
      "job after1 1 id=42",                     // resync proof
      std::string(5 * kMaxLineBytes, 'x'),      // overflows the read buffer
      "job after2 2",                           // resync proof
  };
  std::string corpus;
  for (const std::string& l : lines) {
    corpus += l;
    corpus += '\n';
  }

  const std::vector<FeedEvent> reference =
      feed_chunked(corpus, corpus.size());

  // The reference classification itself: 4 records (in order), 21
  // malformed, 2 oversize, 1 command; empties and comments emit nothing.
  std::size_t records = 0, malformed = 0, oversize = 0, commands = 0;
  for (const FeedEvent& e : reference) {
    switch (e.status) {
      case ParseStatus::kRecord: ++records; break;
      case ParseStatus::kMalformed: ++malformed; break;
      case ParseStatus::kOversize: ++oversize; break;
      case ParseStatus::kCommand: ++commands; break;
      case ParseStatus::kEmpty: FAIL() << "kEmpty must never be emitted";
    }
  }
  EXPECT_EQ(records, 4u);
  EXPECT_EQ(malformed, 21u);
  EXPECT_EQ(oversize, 2u);
  EXPECT_EQ(commands, 1u);
  ASSERT_GE(reference.size(), 3u);
  EXPECT_EQ(reference.front().tenant, "acme");
  EXPECT_DOUBLE_EQ(reference.front().work, 4.0);

  // Every read-boundary split — byte-at-a-time through page-ish reads and
  // the buffer-capacity edge cases — produces the identical event stream.
  const std::size_t chunks[] = {1,    2,    3,    5,    7,    13,   64,
                                256,  1024, 4095, 4096, 4097, 8192, 16383,
                                16384, 16385};
  for (const std::size_t chunk : chunks) {
    SCOPED_TRACE(chunk);
    const std::vector<FeedEvent> got = feed_chunked(corpus, chunk);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(got[i] == reference[i]) << "event " << i;
  }
}

TEST(ServiceRecordBatch, OverflowEmitsExactlyOneOversizeEvent) {
  // A line that dwarfs the read buffer: ONE kOversize event at the
  // overflow, silence until the resync newline, then a clean record.
  const std::string corpus =
      std::string(20 * kMaxLineBytes, 'z') + "\njob ok 1\n";
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4096},
                                  std::size_t{100000}}) {
    SCOPED_TRACE(chunk);
    const std::vector<FeedEvent> events = feed_chunked(corpus, chunk);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].status, ParseStatus::kOversize);
    // The sample is the truncated prefix, never the whole flood.
    EXPECT_LE(events[0].sample.size(), kMaxLineBytes);
    EXPECT_EQ(events[1].status, ParseStatus::kRecord);
    EXPECT_EQ(events[1].tenant, "ok");
  }
}

TEST(ServiceRecordBatch, PartialLineStaysPendingAcrossReads) {
  IngestBuffer buf;
  std::vector<ParsedRecord> entries(4);
  const std::string_view half = "job pend";
  std::memcpy(buf.tail(), half.data(), half.size());
  buf.commit(half.size());
  BatchParse bp = buf.parse({entries.data(), entries.size()});
  EXPECT_EQ(bp.produced, 0u);
  EXPECT_TRUE(buf.has_partial());
  EXPECT_EQ(buf.bytes_since_line(), half.size());
  EXPECT_EQ(buf.partial_sample(), half);

  const std::string_view rest = "ing 3\n";
  std::memcpy(buf.tail(), rest.data(), rest.size());
  buf.commit(rest.size());
  bp = buf.parse({entries.data(), entries.size()});
  ASSERT_EQ(bp.produced, 1u);
  EXPECT_EQ(entries[0].status, ParseStatus::kRecord);
  EXPECT_EQ(entries[0].record.tenant, "pending");
  EXPECT_DOUBLE_EQ(entries[0].record.work, 3.0);
  EXPECT_FALSE(buf.has_partial());
  EXPECT_EQ(buf.bytes_since_line(), 0u);
}

}  // namespace
}  // namespace pjsched::service
