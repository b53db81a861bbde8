// Tests for lattice mappings: the BFS evaluation oracle, verification, and
// the composition invariances that DS / JANUS-MF padding relies on.
#include <gtest/gtest.h>

#include "bf/cover.hpp"
#include "lattice/mapping.hpp"
#include "util/rng.hpp"

namespace janus::lattice {
namespace {

lattice_mapping random_mapping(rng& r, const dims& d, int num_vars) {
  lattice_mapping m(d, num_vars);
  for (auto& cell : m.cells()) {
    const auto kind = r.next_below(4);
    switch (kind) {
      case 0: cell = cell_assign::zero(); break;
      case 1: cell = cell_assign::one(); break;
      default:
        cell = cell_assign::lit(
            static_cast<int>(r.next_below(static_cast<std::uint64_t>(num_vars))),
            r.next_bool());
    }
  }
  return m;
}

TEST(CellAssign, EvalAndFlip) {
  EXPECT_FALSE(cell_assign::zero().eval(0b11));
  EXPECT_TRUE(cell_assign::one().eval(0));
  EXPECT_TRUE(cell_assign::lit(1, false).eval(0b10));
  EXPECT_FALSE(cell_assign::lit(1, true).eval(0b10));
  EXPECT_EQ(cell_assign::zero().with_constants_flipped(), cell_assign::one());
  EXPECT_EQ(cell_assign::one().with_constants_flipped(), cell_assign::zero());
  EXPECT_EQ(cell_assign::lit(2, true).with_constants_flipped(),
            cell_assign::lit(2, true));
  EXPECT_TRUE(cell_assign::zero().is_constant());
  EXPECT_FALSE(cell_assign::lit(0, false).is_constant());
}

TEST(Mapping, SingleColumnComputesProduct) {
  // Column a, b', c realizes ab'c.
  lattice_mapping m(dims{3, 1}, 3);
  m.set(0, 0, cell_assign::lit(0, false));
  m.set(1, 0, cell_assign::lit(1, true));
  m.set(2, 0, cell_assign::lit(2, false));
  const bf::truth_table expected = bf::cover::parse(3, "ab'c").to_truth_table();
  EXPECT_TRUE(m.realizes(expected));
}

TEST(Mapping, SingleRowComputesSum) {
  // A 1×3 row: the lattice output is a + b + c (any ON top cell is also a
  // bottom cell).
  lattice_mapping m(dims{1, 3}, 3);
  for (int c = 0; c < 3; ++c) {
    m.set(0, c, cell_assign::lit(c, false));
  }
  EXPECT_TRUE(m.realizes(bf::cover::parse(3, "a + b + c").to_truth_table()));
}

TEST(Mapping, PaperFig1MinimalLattice) {
  // A 4×2 realization of the Fig. 1 function f = abcd + a'b'cd'.
  lattice_mapping m(dims{4, 2}, 4);
  const char* grid[4][2] = {{"d", "b'"}, {"a", "c"}, {"c", "a'"}, {"b", "d'"}};
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 2; ++c) {
      const std::string s = grid[r][c];
      if (s == "0") {
        m.set(r, c, cell_assign::zero());
      } else if (s == "1") {
        m.set(r, c, cell_assign::one());
      } else {
        m.set(r, c, cell_assign::lit(s[0] - 'a', s.size() > 1));
      }
    }
  }
  EXPECT_TRUE(
      m.realizes(bf::cover::parse(4, "abcd + a'b'cd'").to_truth_table()));
}

TEST(Mapping, EvalDualUsesEightConnectivity) {
  // A diagonal of ONes connects left-right under 8-connectivity only.
  lattice_mapping m(dims{3, 3}, 1);
  m.set(0, 0, cell_assign::one());
  m.set(1, 1, cell_assign::one());
  m.set(2, 2, cell_assign::one());
  EXPECT_TRUE(m.eval_dual(0));
  EXPECT_FALSE(m.eval(0));
}

TEST(Mapping, GridPrinting) {
  lattice_mapping m(dims{2, 2}, 2);
  m.set(0, 0, cell_assign::lit(0, false));
  m.set(0, 1, cell_assign::lit(1, true));
  m.set(1, 0, cell_assign::zero());
  m.set(1, 1, cell_assign::one());
  const std::string s = m.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("b'"), std::string::npos);
  EXPECT_NE(s.find("0"), std::string::npos);
}

// --- composition invariances (DESIGN.md §6) -------------------------------

class DuplicationInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DuplicationInvariance, RowAndColumnDuplicationPreserveTheFunction) {
  rng r(GetParam());
  for (int iter = 0; iter < 15; ++iter) {
    const dims d{2 + static_cast<int>(r.next_below(3)),
                 2 + static_cast<int>(r.next_below(3))};
    const lattice_mapping m = random_mapping(r, d, 3);
    const bf::truth_table f = m.realized_function();
    for (int row = 0; row < d.rows; ++row) {
      EXPECT_EQ(m.with_row_duplicated(row).realized_function(), f)
          << d.str() << " row " << row;
    }
    for (int col = 0; col < d.cols; ++col) {
      EXPECT_EQ(m.with_column_duplicated(col).realized_function(), f)
          << d.str() << " col " << col;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplicationInvariance,
                         ::testing::Values(61u, 62u, 63u, 64u));

TEST(Mapping, PaddingToMoreRowsPreservesTheFunction) {
  rng r(65);
  for (int iter = 0; iter < 10; ++iter) {
    const lattice_mapping m = random_mapping(r, dims{2, 3}, 3);
    const bf::truth_table f = m.realized_function();
    for (int target = 2; target <= 5; ++target) {
      const lattice_mapping padded = m.padded_to_rows(target);
      EXPECT_EQ(padded.grid().rows, target);
      EXPECT_EQ(padded.realized_function(), f);
    }
  }
}

TEST(Mapping, ZeroColumnAppendPreservesTheFunction) {
  rng r(66);
  for (int iter = 0; iter < 10; ++iter) {
    const dims d{3, 3};
    const lattice_mapping m = random_mapping(r, d, 3);
    lattice_mapping wider(dims{d.rows, d.cols + 1}, 3);
    blit(wider, m, 0, 0);
    for (int row = 0; row < d.rows; ++row) {
      wider.set(row, d.cols, cell_assign::zero());
    }
    EXPECT_EQ(wider.realized_function(), m.realized_function());
  }
}

TEST(Mapping, ConcatWithZeroColumnComputesDisjunction) {
  rng r(67);
  for (int iter = 0; iter < 15; ++iter) {
    const lattice_mapping a = random_mapping(
        r, dims{2 + static_cast<int>(r.next_below(3)), 2}, 3);
    const lattice_mapping b = random_mapping(
        r, dims{2 + static_cast<int>(r.next_below(3)), 2}, 3);
    const lattice_mapping both = multi_lattice_mapping::merge({a, b}).grid();
    EXPECT_EQ(both.realized_function(),
              a.realized_function() | b.realized_function());
  }
}

TEST(Mapping, RealizabilityIsMonotoneInRowsAndColumns) {
  // If f fits m×n, it fits (m+1)×n and m×(n+1) — the binary search's
  // justification. Construct: pad rows by duplication, pad columns by a
  // 0-column.
  rng r(68);
  const lattice_mapping m = random_mapping(r, dims{3, 3}, 3);
  const bf::truth_table f = m.realized_function();
  EXPECT_EQ(m.padded_to_rows(4).realized_function(), f);
  lattice_mapping wider(dims{3, 4}, 3);
  blit(wider, m, 0, 0);
  for (int row = 0; row < 3; ++row) {
    wider.set(row, 3, cell_assign::zero());
  }
  EXPECT_EQ(wider.realized_function(), f);
}

TEST(MultiMapping, MergeRealizesEveryOutput) {
  rng r(69);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<lattice_mapping> parts;
    std::vector<bf::truth_table> functions;
    const int outputs = 2 + static_cast<int>(r.next_below(3));
    for (int o = 0; o < outputs; ++o) {
      parts.push_back(random_mapping(
          r,
          dims{2 + static_cast<int>(r.next_below(3)),
               1 + static_cast<int>(r.next_below(3))},
          3));
      functions.push_back(parts.back().realized_function());
    }
    const multi_lattice_mapping merged = multi_lattice_mapping::merge(parts);
    ASSERT_EQ(merged.num_outputs(), outputs);
    EXPECT_TRUE(merged.realizes(functions));
    // Size accounting: blocks + isolation columns.
    int cols = outputs - 1;
    int rows = 0;
    for (const auto& p : parts) {
      cols += p.grid().cols;
      rows = std::max(rows, p.grid().rows);
    }
    EXPECT_EQ(merged.size(), rows * cols);
  }
}

TEST(MultiMapping, RejectsWrongTargetCount) {
  rng r(70);
  const multi_lattice_mapping merged = multi_lattice_mapping::merge(
      {random_mapping(r, dims{2, 2}, 2), random_mapping(r, dims{2, 2}, 2)});
  EXPECT_FALSE(merged.realizes({bf::truth_table(2)}));
}

}  // namespace
}  // namespace janus::lattice
