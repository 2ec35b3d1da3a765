// ASCII table and CSV rendering for bench harness output.
//
// Every figure/table bench prints both a human-readable aligned table and a
// machine-readable CSV block so results can be re-plotted without re-running.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace mmr {

/// Column-aligned text table with an optional title. Cells are strings;
/// numeric helpers format with a fixed precision.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Starts a new row; subsequent add_cell calls append to it.
  TextTable& begin_row();
  TextTable& add_cell(std::string value);
  TextTable& add_cell(double value, int precision = 3);
  TextTable& add_cell(std::int64_t value);
  /// Adds a percentage cell rendered as e.g. "+33.5%".
  TextTable& add_percent(double fraction, int precision = 1);

  /// Convenience: append a full row at once.
  TextTable& add_row(std::vector<std::string> cells);

  std::size_t row_count() const { return rows_.size(); }
  std::size_t column_count() const { return header_.size(); }

  /// Renders with column alignment and a separator under the header.
  std::string to_ascii() const;
  /// Renders as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  std::string to_csv() const;

  /// Prints ASCII followed by a "# CSV" block to the stream.
  void print(std::ostream& os, const std::string& title = "") const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with examples).
std::string format_double(double value, int precision = 3);
/// Formats a fraction as a signed percentage, e.g. 0.335 -> "+33.5%".
std::string format_percent(double fraction, int precision = 1);
/// Formats a share (utilization, attainment, traffic share) as an unsigned
/// percentage, e.g. 0.638 -> "63.8%".
std::string format_share(double fraction, int precision = 1);
/// Formats a byte count with binary units, e.g. "1.8 GiB".
std::string format_bytes(double bytes);

}  // namespace mmr
