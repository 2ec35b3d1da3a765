#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/check.h"

namespace mmr {
namespace {

TEST(TextTable, AsciiAlignment) {
  TextTable t({"name", "value"});
  t.begin_row().add_cell("a").add_cell(std::int64_t{1});
  t.begin_row().add_cell("long-name").add_cell(std::int64_t{22});
  const std::string ascii = t.to_ascii();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(ascii.begin(), ascii.end(), '\n'), 4);
  EXPECT_NE(ascii.find("long-name"), std::string::npos);
  // Every line has the same width (alignment check).
  std::istringstream is(ascii);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, NumericFormatting) {
  TextTable t({"x"});
  t.begin_row().add_cell(3.14159, 2);
  EXPECT_NE(t.to_ascii().find("3.14"), std::string::npos);
  t.begin_row().add_percent(0.335);
  EXPECT_NE(t.to_ascii().find("+33.5%"), std::string::npos);
  t.begin_row().add_percent(-0.05);
  EXPECT_NE(t.to_ascii().find("-5.0%"), std::string::npos);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"with\"quote", "multi\nline"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, RowDisciplineEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_cell("x"), CheckError);  // no begin_row
  t.begin_row().add_cell("1").add_cell("2");
  EXPECT_THROW(t.add_cell("3"), CheckError);  // too many cells
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
  EXPECT_THROW(TextTable({}), CheckError);
}

TEST(TextTable, PrintIncludesTitleAndCsvBlock) {
  TextTable t({"h"});
  t.add_row({"v"});
  std::ostringstream os;
  t.print(os, "my title");
  const std::string out = os.str();
  EXPECT_NE(out.find("== my title =="), std::string::npos);
  EXPECT_NE(out.find("# CSV"), std::string::npos);
  EXPECT_NE(out.find("# END CSV"), std::string::npos);
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(1.23456, 3), "1.235");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.335), "+33.5%");
  EXPECT_EQ(format_percent(-0.238), "-23.8%");
  EXPECT_EQ(format_percent(0.0), "+0.0%");
}

TEST(Format, Share) {
  EXPECT_EQ(format_share(0.638), "63.8%");
  EXPECT_EQ(format_share(0.0), "0.0%");
  EXPECT_EQ(format_share(1.0, 0), "100%");
  EXPECT_EQ(format_share(0.5, 0), format_percent(0.5, 0).substr(1));
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(1.8 * 1024 * 1024 * 1024), "1.80 GiB");
}

}  // namespace
}  // namespace mmr
