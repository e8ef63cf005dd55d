#include "io/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "io/csv.h"

namespace antalloc {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

std::string Table::fmt(std::int64_t value) {
  return std::to_string(value);
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << cells[c]
          << std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    out << '\n';
  };
  emit(headers_);
  std::size_t rule = 0;
  for (const auto w : widths) rule += w + 2;
  out << std::string(rule, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string Table::to_csv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out << ',';
      out << csv_escape(cells[c]);
    }
    out << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace antalloc
