// The paper artifact, pinned. analysis::render_paper() of the calibrated
// CENIC scenario (seed 0xCE41C) must equal tests/golden/cenic_paper.txt
// byte for byte, and every number EXPERIMENTS.md reports as measured must
// appear in that file.
//
// A change that moves a table on purpose updates the golden file: the
// failing test writes the text it rendered next to its binary
// (cenic_paper.actual.txt); review it, copy it over the golden file and
// correct EXPERIMENTS.md to match.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/scenario_cache.hpp"
#include "src/analysis/tables.hpp"

namespace netfail::analysis {
namespace {

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(PaperGolden, CenicScenarioMatchesCommittedFile) {
  const std::string expected = read_file(NETFAIL_GOLDEN_PAPER);
  ASSERT_FALSE(expected.empty());
  const std::string actual =
      render_paper(*ScenarioCache::global().pipeline());
  if (actual == expected) return;

  std::ofstream(NETFAIL_GOLDEN_PAPER_ACTUAL, std::ios::binary) << actual;
  const std::vector<std::string> want = split_lines(expected);
  const std::vector<std::string> got = split_lines(actual);
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  FAIL() << "render_paper differs from " << NETFAIL_GOLDEN_PAPER
         << " first at line " << i + 1 << ":\n  golden: "
         << (i < want.size() ? want[i] : "<end of file>")
         << "\n  actual: " << (i < got.size() ? got[i] : "<end of text>")
         << "\nthe rendered text is in " << NETFAIL_GOLDEN_PAPER_ACTUAL;
}

// ---- EXPERIMENTS.md ------------------------------------------------------

std::string strip_commas(std::string s) {
  std::erase(s, ',');
  return s;
}

// The numbers in a cell ("1,179 (13%)" -> "1179", "13"), commas stripped.
std::vector<std::string> numbers_in(const std::string& cell) {
  std::vector<std::string> out;
  const auto digit = [&](std::size_t i) {
    return i < cell.size() &&
           std::isdigit(static_cast<unsigned char>(cell[i])) != 0;
  };
  for (std::size_t i = 0; i < cell.size();) {
    if (!digit(i)) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (digit(end) || (cell[end] == ',' && digit(end + 1))) ++end;
    if (end < cell.size() && cell[end] == '.' && digit(end + 1)) {
      for (++end; digit(end);) ++end;
    }
    out.push_back(strip_commas(cell.substr(i, end - i)));
    i = end;
  }
  return out;
}

// `number` occurs in `text` as a whole number: not inside a longer one.
bool contains_number(const std::string& text, const std::string& number) {
  const auto digit_at = [&](std::size_t i) {
    return i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])) != 0;
  };
  for (std::size_t at = text.find(number); at != std::string::npos;
       at = text.find(number, at + 1)) {
    const std::size_t end = at + number.size();
    const bool joined_before =
        at > 0 && (digit_at(at - 1) || text[at - 1] == '.');
    const bool joined_after =
        digit_at(end) || (end < text.size() && text[end] == '.' &&
                          digit_at(end + 1));
    if (!joined_before && !joined_after) return true;
  }
  return false;
}

std::vector<std::string> table_cells(const std::string& row) {
  std::vector<std::string> cells;
  std::istringstream in(row.substr(1));  // drop the leading '|'
  for (std::string cell; std::getline(in, cell, '|');) cells.push_back(cell);
  return cells;
}

// A "Measured" cell is one in a table column whose header names
// "Measured", or in a row whose first cell does. Every section but the
// ablations (which re-simulate, so their prose stays unchecked) and the
// deviations must hold at least one.
TEST(PaperGolden, ExperimentsMeasuredCellsAppearInGolden) {
  const std::string golden = strip_commas(read_file(NETFAIL_GOLDEN_PAPER));
  const std::vector<std::string> doc =
      split_lines(read_file(NETFAIL_EXPERIMENTS_MD));
  ASSERT_FALSE(golden.empty());
  ASSERT_FALSE(doc.empty());

  std::string section;
  std::size_t section_cells = 0;
  std::vector<std::string> empty_sections;
  const auto close_section = [&] {
    const bool unchecked = section.empty() ||
                           section.starts_with("## Ablations") ||
                           section.starts_with("## Known deviations");
    if (!unchecked && section_cells == 0) empty_sections.push_back(section);
    section_cells = 0;
  };

  std::vector<bool> measured_column;
  bool in_table = false;
  std::size_t cells_checked = 0;
  for (std::size_t n = 0; n < doc.size(); ++n) {
    const std::string& line = doc[n];
    if (line.starts_with("## ")) {
      close_section();
      section = line;
    }
    if (!line.starts_with("|")) {
      in_table = false;
      continue;
    }
    const std::vector<std::string> cells = table_cells(line);
    if (!in_table) {  // the header row
      in_table = true;
      measured_column.clear();
      for (const std::string& c : cells) {
        measured_column.push_back(c.find("Measured") != std::string::npos);
      }
      continue;
    }
    if (line.starts_with("|--") || line.starts_with("|:-")) continue;
    const bool measured_row =
        !cells.empty() && cells[0].find("Measured") != std::string::npos;
    for (std::size_t c = 1; c < cells.size(); ++c) {
      if (!measured_row &&
          !(c < measured_column.size() && measured_column[c])) {
        continue;
      }
      ++section_cells;
      ++cells_checked;
      for (const std::string& number : numbers_in(cells[c])) {
        EXPECT_TRUE(contains_number(golden, number))
            << "EXPERIMENTS.md line " << n + 1 << ": measured " << number
            << " is not in " << NETFAIL_GOLDEN_PAPER << "\n  " << line;
      }
    }
  }
  close_section();
  EXPECT_GT(cells_checked, 0u);
  for (const std::string& s : empty_sections) {
    ADD_FAILURE() << "EXPERIMENTS.md section without a Measured cell: " << s;
  }
}

}  // namespace
}  // namespace netfail::analysis
