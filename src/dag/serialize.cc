#include "src/dag/serialize.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/parse.h"

namespace pjsched::dag {

void write_text(std::ostream& os, const Dag& d) {
  if (!d.sealed()) throw std::invalid_argument("write_text: DAG not sealed");
  os << "dag " << d.node_count() << ' ' << d.edge_count() << '\n';
  for (std::size_t v = 0; v < d.node_count(); ++v)
    os << "node " << v << ' ' << d.work_of(static_cast<NodeId>(v)) << '\n';
  for (std::size_t v = 0; v < d.node_count(); ++v)
    for (NodeId w : d.successors(static_cast<NodeId>(v)))
      os << "edge " << v << ' ' << w << '\n';
  os << "end\n";
}

std::string to_text(const Dag& d) {
  std::ostringstream oss;
  write_text(oss, d);
  return oss.str();
}

namespace {
// Pulls the next whitespace-separated token, skipping '#' comments.
bool next_token(std::istream& is, std::string& tok) {
  while (is >> tok) {
    if (tok[0] == '#') {
      is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      continue;
    }
    return true;
  }
  return false;
}

std::uint64_t expect_u64(std::istream& is, const char* what) {
  std::string tok;
  if (!next_token(is, tok))
    throw std::invalid_argument(std::string("read_text: missing ") + what);
  try {
    return core::parse_unsigned<std::uint64_t>(tok);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string("read_text: bad ") + what + " '" +
                                tok + "'");
  }
}
}  // namespace

Dag read_text(std::istream& is) {
  std::string tok;
  if (!next_token(is, tok) || tok != "dag")
    throw std::invalid_argument("read_text: expected 'dag' header");
  const std::uint64_t n = expect_u64(is, "node count");
  const std::uint64_t e = expect_u64(is, "edge count");

  Dag d;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!next_token(is, tok) || tok != "node")
      throw std::invalid_argument("read_text: expected 'node' record");
    const std::uint64_t id = expect_u64(is, "node id");
    if (id != i)
      throw std::invalid_argument(
          "read_text: node ids must be 0..n-1 in order");
    const std::uint64_t work = expect_u64(is, "node work");
    d.add_node(work);
  }
  for (std::uint64_t i = 0; i < e; ++i) {
    if (!next_token(is, tok) || tok != "edge")
      throw std::invalid_argument("read_text: expected 'edge' record");
    const std::uint64_t from = expect_u64(is, "edge source");
    const std::uint64_t to = expect_u64(is, "edge target");
    if (from >= n || to >= n)
      throw std::invalid_argument("read_text: edge endpoint out of range");
    d.add_edge(static_cast<NodeId>(from), static_cast<NodeId>(to));
  }
  if (!next_token(is, tok) || tok != "end")
    throw std::invalid_argument("read_text: expected 'end' trailer");
  d.seal();
  return d;
}

Dag from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_text(iss);
}

}  // namespace pjsched::dag
