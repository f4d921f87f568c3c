#include "report/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace fbmb {
namespace {

TEST(TextTable, BasicRendering) {
  TextTable table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Header, rule and the two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TextTable, DefaultAlignmentLeftFirstColumn) {
  TextTable table({"Name", "Value"});
  table.add_row({"x", "1"});
  const std::string out = table.to_string();
  // First column left-aligned: "x" appears at the start of its row.
  std::istringstream is(out);
  std::string header, rule, row;
  std::getline(is, header);
  std::getline(is, rule);
  std::getline(is, row);
  EXPECT_EQ(row.find('x'), 0u);
  // Second column right-aligned: "1" ends the row.
  EXPECT_EQ(row.back(), '1');
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table({"A", "B", "C"});
  table.add_row({"only"});
  EXPECT_NO_THROW(table.to_string());
}

TEST(TextTable, TooManyCellsThrow) {
  TextTable table({"A"});
  EXPECT_THROW(table.add_row({"1", "2"}), std::invalid_argument);
}

TEST(TextTable, AlignmentSizeMismatchThrows) {
  EXPECT_THROW(TextTable({"A", "B"}, {Align::kLeft}), std::invalid_argument);
}

TEST(TextTable, CsvOutput) {
  TextTable table({"Benchmark", "Ours", "BA"});
  table.add_row({"PCR", "30", "30"});
  const std::string csv = table.to_csv();
  EXPECT_EQ(csv, "Benchmark,Ours,BA\nPCR,30,30\n");
}

TEST(TextTable, StreamOperator) {
  TextTable table({"A"});
  table.add_row({"1"});
  std::ostringstream os;
  os << table;
  EXPECT_EQ(os.str(), table.to_string());
}

TEST(CsvEscape, QuotesWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csv_escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csv_escape("multi\nline"), "\"multi\nline\"");
}

TEST(TextTable, ColumnsWidenToContent) {
  TextTable table({"H"});
  table.add_row({"very-long-content"});
  std::istringstream is(table.to_string());
  std::string header;
  std::getline(is, header);
  EXPECT_GE(header.size(), std::string("very-long-content").size());
}

}  // namespace
}  // namespace fbmb
