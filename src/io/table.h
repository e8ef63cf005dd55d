// Aligned plain-text table writer for bench output.
//
// Construct with the header row, add_row() free-form string cells (the
// static fmt() helpers format numbers consistently), then render() for
// aligned plain text or to_csv() for the same data as CSV (what
// BenchContext mirrors to disk).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace antalloc {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Row cells are free-form strings; helpers format numbers consistently.
  void add_row(std::vector<std::string> cells);

  static std::string fmt(double value, int precision = 4);
  static std::string fmt(std::int64_t value);

  std::size_t num_rows() const { return rows_.size(); }

  // Renders with aligned columns.
  std::string render() const;

  // CSV view of the same data (headers + rows).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace antalloc
