// Wire format of the scheduling daemon's streaming job feed: one
// newline-delimited record per job, plain text, designed to be parsed
// defensively — a misbehaving client must never be able to crash or wedge
// the daemon, so every limit is explicit and every failure is a value, not
// an exception.
//
//   job <tenant> <work> [key=value ...]
//
//   tenant       [A-Za-z0-9_.-], at most kMaxTenantBytes
//   work         total work units, (0, kMaxWork]
//   fanout=N     parallel subtasks the work is split across (1..kMaxFanout)
//   weight=W     tenant-relative job weight, (0, kMaxWeight]
//   deadline_ms=D  per-job deadline budget, 1..kMaxDeadlineMs
//   id=N         client-chosen tag (uint64), echoed in accounting
//
// One control verb rides on the same framing:
//
//   metrics      request a machine-readable metrics snapshot; the daemon
//                replies with `key value` lines terminated by `end`.
//
// Blank lines and '#'-to-end-of-line comments are ignored.  Lines longer
// than kMaxLineBytes are malformed by definition (the stream layer
// quarantines them and resyncs at the next newline).
//
// parse_record_view() parses one line; parse_batch() is the zero-copy
// ingest path built on it — it scans a whole read buffer in place,
// emitting string_view line slices and static error strings, allocating
// nothing beyond each record's tenant assignment (which is SSO-free for
// short names and at most one allocation per job).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace pjsched::service {

inline constexpr std::size_t kMaxLineBytes = 4096;
inline constexpr std::size_t kMaxTenantBytes = 64;
inline constexpr unsigned kMaxFanout = 4096;
inline constexpr double kMaxWork = 1e9;
inline constexpr double kMaxWeight = 1e6;
inline constexpr std::uint64_t kMaxDeadlineMs = 3'600'000;  // one hour

/// One parsed job submission.
struct JobRecord {
  std::string tenant;
  double work = 1.0;
  unsigned fanout = 1;
  double weight = 1.0;
  std::uint64_t deadline_ms = 0;  ///< 0 = no deadline
  std::uint64_t client_id = 0;    ///< opaque client tag (id=), 0 if unset
};

enum class ParseStatus {
  kRecord,     ///< a job record was parsed into *out
  kEmpty,      ///< blank line or comment — nothing to do
  kMalformed,  ///< quarantine the line; *error says why
  kCommand,    ///< a control verb ("metrics"); no record was produced
  kOversize,   ///< a complete line over kMaxLineBytes
};

/// Parses one line of the feed.  Never throws and allocates nothing:
/// malformed input — bad numbers, out-of-range values, oversize tokens,
/// unknown keys — comes back as kMalformed with *error pointing at a
/// static diagnostic.  `line` must not contain the trailing newline; a
/// line over kMaxLineBytes is kOversize.  *out is written in place (its
/// tenant string's capacity is reused — the reason the batch path stays
/// at <= 1 allocation per job); on kMalformed it may hold a
/// partially-updated record, and callers must treat it as garbage.
ParseStatus parse_record_view(std::string_view line, JobRecord* out,
                              const char** error);

/// One entry of a parse batch.  `line` (and therefore any diagnostics
/// derived from it) points into the scanned buffer and is valid only until
/// the buffer's bytes are overwritten or compacted.
struct ParsedRecord {
  ParseStatus status = ParseStatus::kEmpty;
  JobRecord record;             ///< valid when status == kRecord
  std::string_view line;        ///< the raw line, newline excluded
  const char* error = nullptr;  ///< static diagnostic when malformed/oversize
};

/// Result of one parse_batch scan.
struct BatchParse {
  std::size_t consumed = 0;  ///< buffer bytes consumed (complete lines only)
  std::size_t produced = 0;  ///< entries of `out` filled
};

/// Scans `buffer` in place for newline-terminated lines, filling `out`
/// with one entry per non-empty line (blank/comment lines are consumed but
/// produce no entry).  Stops when `out` is full or no complete line
/// remains; trailing bytes without a newline are never consumed — the
/// caller carries them into the next read (see IngestBuffer).  Per-field
/// parsing allocates nothing; each kRecord entry's tenant assignment reuses
/// the slot's string capacity, so a warm batch over short tenant names is
/// allocation-free.
BatchParse parse_batch(std::string_view buffer, std::span<ParsedRecord> out);

/// Renders a record as a feed line (inverse of parse_record_view; used by
/// the load generator and replay-file writer).
std::string format_record(const JobRecord& record);

}  // namespace pjsched::service
