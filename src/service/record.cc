#include "src/service/record.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <sstream>

namespace pjsched::service {

namespace {

bool tenant_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-';
}

bool parse_double(std::string_view tok, double* out) {
  if (tok.empty() || tok.size() > 64) return false;
  // strtod needs a terminator; tokens are short, so a stack copy is fine.
  char buf[65];
  tok.copy(buf, tok.size());
  buf[tok.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + tok.size()) return false;
  // Reject inf/nan and anything non-finite a hostile client can encode.
  if (!(v > -1e300 && v < 1e300)) return false;
  *out = v;
  return true;
}

bool parse_u64(std::string_view tok, std::uint64_t* out) {
  if (tok.empty()) return false;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), *out);
  return res.ec == std::errc() && res.ptr == tok.data() + tok.size();
}

/// Advances past whitespace and returns the next token of `rest`, or an
/// empty view at end of line / start of comment.  Tokens are never empty,
/// so emptiness is an unambiguous end marker.
std::string_view next_token(std::string_view& rest) {
  std::size_t i = 0;
  while (i < rest.size() && std::isspace(static_cast<unsigned char>(rest[i])))
    ++i;
  if (i >= rest.size() || rest[i] == '#') {
    rest = {};
    return {};
  }
  std::size_t j = i;
  while (j < rest.size() && !std::isspace(static_cast<unsigned char>(rest[j])))
    ++j;
  const std::string_view tok = rest.substr(i, j - i);
  rest.remove_prefix(j);
  return tok;
}

ParseStatus malformed(const char** error, const char* why) {
  if (error != nullptr) *error = why;
  return ParseStatus::kMalformed;
}

}  // namespace

ParseStatus parse_record_view(std::string_view line, JobRecord* out,
                              const char** error) {
  if (line.size() > kMaxLineBytes) {
    if (error != nullptr) *error = "line exceeds the byte bound";
    return ParseStatus::kOversize;
  }
  std::string_view rest = line;
  const std::string_view verb = next_token(rest);
  if (verb.empty()) return ParseStatus::kEmpty;
  if (verb == "metrics") {
    if (!next_token(rest).empty())
      return malformed(error, "metrics takes no arguments");
    return ParseStatus::kCommand;
  }
  if (verb != "job") return malformed(error, "unknown verb");

  const std::string_view tenant = next_token(rest);
  const std::string_view work_tok = next_token(rest);
  if (tenant.empty() || work_tok.empty())
    return malformed(error, "job needs <tenant> <work>");
  if (tenant.size() > kMaxTenantBytes)
    return malformed(error, "tenant name length out of range");
  for (char c : tenant)
    if (!tenant_char(c))
      return malformed(error, "tenant name has an invalid character");

  // Scalars first so a malformed later token never leaves half-stale
  // values behind a kRecord (the tenant assign reuses the slot's capacity —
  // the one permitted allocation per job, and none at all under SSO).
  out->work = 1.0;
  out->fanout = 1;
  out->weight = 1.0;
  out->deadline_ms = 0;
  out->client_id = 0;
  if (!parse_double(work_tok, &out->work) || !(out->work > 0.0) ||
      out->work > kMaxWork)
    return malformed(error, "work out of range");

  for (std::string_view tok = next_token(rest); !tok.empty();
       tok = next_token(rest)) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= tok.size())
      return malformed(error, "expected key=value");
    const std::string_view key = tok.substr(0, eq);
    const std::string_view val = tok.substr(eq + 1);
    if (key == "fanout") {
      std::uint64_t v = 0;
      if (!parse_u64(val, &v) || v < 1 || v > kMaxFanout)
        return malformed(error, "fanout out of range");
      out->fanout = static_cast<unsigned>(v);
    } else if (key == "weight") {
      if (!parse_double(val, &out->weight) || !(out->weight > 0.0) ||
          out->weight > kMaxWeight)
        return malformed(error, "weight out of range");
    } else if (key == "deadline_ms") {
      if (!parse_u64(val, &out->deadline_ms) || out->deadline_ms < 1 ||
          out->deadline_ms > kMaxDeadlineMs)
        return malformed(error, "deadline_ms out of range");
    } else if (key == "id") {
      if (!parse_u64(val, &out->client_id))
        return malformed(error, "id must be a uint64");
    } else {
      return malformed(error, "unknown key");
    }
  }
  out->tenant.assign(tenant);
  return ParseStatus::kRecord;
}

BatchParse parse_batch(std::string_view buffer, std::span<ParsedRecord> out) {
  BatchParse result;
  std::size_t pos = 0;
  while (result.produced < out.size()) {
    const std::size_t nl = buffer.find('\n', pos);
    if (nl == std::string_view::npos) break;
    const std::string_view line = buffer.substr(pos, nl - pos);
    pos = nl + 1;
    ParsedRecord& entry = out[result.produced];
    entry.line = line;
    entry.error = nullptr;
    entry.status = parse_record_view(line, &entry.record, &entry.error);
    if (entry.status == ParseStatus::kEmpty) continue;  // no entry to emit
    ++result.produced;
  }
  result.consumed = pos;
  return result;
}

std::string format_record(const JobRecord& record) {
  std::ostringstream os;
  os << "job " << record.tenant << ' ' << record.work;
  if (record.fanout != 1) os << " fanout=" << record.fanout;
  if (record.weight != 1.0) os << " weight=" << record.weight;
  if (record.deadline_ms != 0) os << " deadline_ms=" << record.deadline_ms;
  if (record.client_id != 0) os << " id=" << record.client_id;
  return os.str();
}

}  // namespace pjsched::service
