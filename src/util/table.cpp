#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "util/check.h"

namespace mmr {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  MMR_CHECK_MSG(!header_.empty(), "TextTable needs at least one column");
}

TextTable& TextTable::begin_row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

TextTable& TextTable::add_cell(std::string value) {
  MMR_CHECK_MSG(!rows_.empty(), "add_cell before begin_row");
  MMR_CHECK_MSG(rows_.back().size() < header_.size(),
                "row has more cells than header columns");
  rows_.back().push_back(std::move(value));
  return *this;
}

TextTable& TextTable::add_cell(double value, int precision) {
  return add_cell(format_double(value, precision));
}

TextTable& TextTable::add_cell(std::int64_t value) {
  return add_cell(std::to_string(value));
}

TextTable& TextTable::add_percent(double fraction, int precision) {
  return add_cell(format_percent(fraction, precision));
}

TextTable& TextTable::add_row(std::vector<std::string> cells) {
  MMR_CHECK_MSG(cells.size() == header_.size(),
                "add_row cell count mismatch: " << cells.size() << " vs "
                                                << header_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string TextTable::to_ascii() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string();
      os << (c == 0 ? "| " : " | ") << std::setw(static_cast<int>(widths[c]))
         << v;
    }
    os << " |\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
  }
  os << "-|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

namespace {

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string TextTable::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void TextTable::print(std::ostream& os, const std::string& title) const {
  if (!title.empty()) os << "== " << title << " ==\n";
  os << to_ascii();
  os << "# CSV\n" << to_csv() << "# END CSV\n";
}

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_percent(double fraction, int precision) {
  std::ostringstream os;
  os << (fraction >= 0 ? "+" : "") << std::fixed
     << std::setprecision(precision) << fraction * 100.0 << "%";
  return os.str();
}

std::string format_share(double fraction, int precision) {
  return format_double(fraction * 100.0, precision) + "%";
}

std::string format_bytes(double bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  double v = bytes;
  while (std::fabs(v) >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(u == 0 ? 0 : 2) << v << ' '
     << units[u];
  return os.str();
}

}  // namespace mmr
