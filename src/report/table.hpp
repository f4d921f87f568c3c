// ASCII table and CSV rendering for experiment reports.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fbmb {

/// Column alignment for TextTable.
enum class Align { kLeft, kRight };

/// A simple monospaced table with a header row, used by the bench binaries
/// to print Table I / Fig. 8 / Fig. 9 in the paper's row format.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers,
                     std::vector<Align> alignment = {});

  /// Adds a row; missing cells render empty, extra cells are an error.
  void add_row(std::vector<std::string> cells);

  std::string to_string() const;
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& table);

/// Escapes a CSV field (quotes fields containing separators/quotes).
std::string csv_escape(const std::string& field);

}  // namespace fbmb
