#include "src/workload/instance_io.h"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/parse.h"
#include "src/dag/serialize.h"

namespace pjsched::workload {

void write_instance(std::ostream& os, const core::Instance& instance) {
  instance.validate();
  // Arrivals and weights in the default float format at max_digits10, so
  // the file reads back as exactly this instance; the caller's format is
  // restored afterwards.
  const std::ios_base::fmtflags flags = os.flags();
  const std::streamsize precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os.unsetf(std::ios_base::floatfield);
  os << "instance " << instance.size() << '\n';
  for (const core::JobSpec& job : instance.jobs) {
    os << "job " << job.arrival << ' ' << job.weight << '\n';
    dag::write_text(os, job.graph);
  }
  os << "endinstance\n";
  os.flags(flags);
  os.precision(precision);
}

std::string instance_to_text(const core::Instance& instance) {
  std::ostringstream oss;
  write_instance(oss, instance);
  return oss.str();
}

namespace {

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

/// Reads the next token and parses it with `parse` (core::parse_unsigned
/// or core::parse_finite), naming `what` in the error.
template <typename Parse>
auto expect_number(std::istream& is, const char* what, Parse parse) {
  std::string tok;
  if (!next_token(is, tok))
    throw std::invalid_argument(std::string("read_instance: missing ") + what);
  try {
    return parse(tok);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string("read_instance: bad ") + what +
                                " '" + tok + "'");
  }
}

}  // namespace

core::Instance read_instance(std::istream& is) {
  std::string tok;
  if (!next_token(is, tok) || tok != "instance")
    throw std::invalid_argument("read_instance: expected 'instance' header");
  const auto count = expect_number(is, "job count",
                                   core::parse_unsigned<std::size_t>);
  if (count < 1) throw std::invalid_argument("read_instance: bad job count");

  core::Instance inst;
  inst.jobs.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    if (!next_token(is, tok) || tok != "job")
      throw std::invalid_argument("read_instance: expected 'job' record");
    core::JobSpec spec;
    spec.arrival = expect_number(is, "arrival", core::parse_finite);
    spec.weight = expect_number(is, "weight", core::parse_finite);
    spec.graph = dag::read_text(is);
    inst.jobs.push_back(std::move(spec));
  }
  if (!next_token(is, tok) || tok != "endinstance")
    throw std::invalid_argument("read_instance: expected 'endinstance'");
  inst.validate();
  return inst;
}

core::Instance instance_from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_instance(iss);
}

}  // namespace pjsched::workload
