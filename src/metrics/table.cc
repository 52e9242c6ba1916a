#include "src/metrics/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pjsched::metrics {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size())
    throw std::invalid_argument("Table::add_row: wrong cell count");
  rows_.push_back(std::move(row));
}

std::string Table::cell(double v) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(4) << v;
  return oss.str();
}

std::string Table::cell(std::uint64_t v) { return std::to_string(v); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c]))
         << row[c];
    os << " |\n";
  };
  print_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  os << "-|\n";
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(std::ostream& os) const {
  const auto emit = [&os](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      const std::string& cell = row[c];
      if (cell.find_first_of(",\"\n") != std::string::npos) {
        os << '"';
        for (char ch : cell) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << cell;
      }
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace pjsched::metrics
