// Tests for irredundant path enumeration — the lattice-function substrate.
//
// The headline check: the enumerator reproduces the paper's Table I exactly
// (both the lattice function's product count and its dual's). Property tests
// then verify minimality (no enumerated cell set contains another) and
// cross-check the enumerated products against an independent
// connectivity-evaluated ISOP on small grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bf/cover.hpp"
#include "lattice/mapping.hpp"
#include "lattice/paths.hpp"

namespace janus::lattice {
namespace {

std::set<std::set<int>> path_cell_sets(const dims& d, connectivity conn) {
  std::set<std::set<int>> sets;
  enumerate_paths(d, conn, [&](const path& p) {
    std::set<int> cells(p.cells.begin(), p.cells.end());
    EXPECT_EQ(cells.size(), p.cells.size()) << "self-intersecting path";
    EXPECT_TRUE(sets.insert(cells).second) << "duplicate path";
    return true;
  });
  return sets;
}

struct Table1Param {
  int rows;
  int cols;
};

class Table1Sweep : public ::testing::TestWithParam<Table1Param> {};

TEST_P(Table1Sweep, MatchesPaperExactly) {
  const auto [m, n] = GetParam();
  const table1_entry expected = paper_table1(m, n);
  EXPECT_EQ(count_paths({m, n}, connectivity::four_top_bottom),
            expected.function_products);
  EXPECT_EQ(count_paths({m, n}, connectivity::eight_left_right),
            expected.dual_products);
}

std::vector<Table1Param> table1_grid() {
  std::vector<Table1Param> out;
  for (int m = 2; m <= 6; ++m) {
    for (int n = 2; n <= 6; ++n) {
      out.push_back({m, n});
    }
  }
  out.push_back({7, 7});  // one larger entry; 8x8 lives in the bench
  out.push_back({2, 8});
  out.push_back({8, 2});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, Table1Sweep, ::testing::ValuesIn(table1_grid()));

TEST(Paths, DegenerateLattices) {
  // 1×n: each top cell is also a bottom cell — n single-cell paths.
  EXPECT_EQ(count_paths({1, 5}, connectivity::four_top_bottom), 5u);
  // m×1: the single column is the only path.
  EXPECT_EQ(count_paths({4, 1}, connectivity::four_top_bottom), 1u);
  // 1×n left-right (8-connected): the full row is the only path.
  EXPECT_EQ(count_paths({1, 4}, connectivity::eight_left_right), 1u);
  EXPECT_EQ(count_paths({1, 1}, connectivity::four_top_bottom), 1u);
}

TEST(Paths, MinimalityNoPathContainsAnother) {
  for (const dims d : {dims{3, 3}, dims{4, 3}, dims{3, 4}, dims{4, 4}}) {
    for (const auto conn :
         {connectivity::four_top_bottom, connectivity::eight_left_right}) {
      const auto sets = path_cell_sets(d, conn);
      for (const auto& a : sets) {
        for (const auto& b : sets) {
          if (&a == &b) {
            continue;
          }
          EXPECT_FALSE(std::includes(a.begin(), a.end(), b.begin(), b.end()))
              << d.str() << ": one path's cells contain another's";
        }
      }
    }
  }
}

TEST(Paths, EndpointsTouchTheRightPlates) {
  const dims d{4, 5};
  enumerate_paths(d, connectivity::four_top_bottom, [&](const path& p) {
    EXPECT_EQ(d.row_of(p.cells.front()), 0);
    EXPECT_EQ(d.row_of(p.cells.back()), d.rows - 1);
    // Interior cells avoid both plates.
    for (std::size_t i = 1; i + 1 < p.cells.size(); ++i) {
      EXPECT_NE(d.row_of(p.cells[i]), 0);
      EXPECT_NE(d.row_of(p.cells[i]), d.rows - 1);
    }
    return true;
  });
  enumerate_paths(d, connectivity::eight_left_right, [&](const path& p) {
    EXPECT_EQ(d.col_of(p.cells.front()), 0);
    EXPECT_EQ(d.col_of(p.cells.back()), d.cols - 1);
    return true;
  });
}

TEST(Paths, StepsAreAdjacentUnderTheConnectivity) {
  const dims d{4, 4};
  enumerate_paths(d, connectivity::four_top_bottom, [&](const path& p) {
    for (std::size_t i = 0; i + 1 < p.cells.size(); ++i) {
      const int dr = std::abs(d.row_of(p.cells[i]) - d.row_of(p.cells[i + 1]));
      const int dc = std::abs(d.col_of(p.cells[i]) - d.col_of(p.cells[i + 1]));
      EXPECT_EQ(dr + dc, 1) << "non-4-adjacent step";
    }
    return true;
  });
  enumerate_paths(d, connectivity::eight_left_right, [&](const path& p) {
    for (std::size_t i = 0; i + 1 < p.cells.size(); ++i) {
      const int dr = std::abs(d.row_of(p.cells[i]) - d.row_of(p.cells[i + 1]));
      const int dc = std::abs(d.col_of(p.cells[i]) - d.col_of(p.cells[i + 1]));
      EXPECT_LE(dr, 1);
      EXPECT_LE(dc, 1);
      EXPECT_GT(dr + dc, 0);
    }
    return true;
  });
}

/// Cross-check: on lattices small enough to treat each cell as a Boolean
/// variable, the enumerated products must equal the ISOP of the
/// connectivity-evaluated lattice function (computed via the independent BFS
/// oracle in lattice_mapping).
TEST(Paths, ProductsEqualConnectivityIsop) {
  for (const dims d : {dims{2, 2}, dims{3, 3}, dims{2, 4}, dims{4, 3}}) {
    const int cells = d.size();
    ASSERT_LE(cells, 12);
    // Truth table over cell variables via BFS connectivity.
    bf::truth_table f(cells);
    lattice_mapping m(d, cells);
    for (std::uint64_t assignment = 0; assignment < (std::uint64_t{1} << cells);
         ++assignment) {
      for (int cell = 0; cell < cells; ++cell) {
        m.cells()[static_cast<std::size_t>(cell)] =
            ((assignment >> cell) & 1) != 0 ? cell_assign::one()
                                            : cell_assign::zero();
      }
      f.set(assignment, m.eval(0));
    }
    const bf::cover isop_cover = bf::isop(f);
    // Each ISOP cube should be exactly the cell set of one enumerated path.
    std::set<std::set<int>> isop_sets;
    for (const bf::cube& c : isop_cover.cubes()) {
      std::set<int> s;
      for (const bf::literal l : c.literals()) {
        EXPECT_FALSE(l.negated) << "lattice function must be monotone";
        s.insert(l.variable);
      }
      isop_sets.insert(s);
    }
    EXPECT_EQ(isop_sets, path_cell_sets(d, connectivity::four_top_bottom))
        << d.str();
  }
}

TEST(Paths, ListStoresEnumerationOrderFlat) {
  for (const dims d : {dims{3, 3}, dims{2, 5}, dims{4, 3}}) {
    for (const connectivity conn :
         {connectivity::four_top_bottom, connectivity::eight_left_right}) {
      std::vector<std::vector<std::uint16_t>> expected;
      std::size_t cells = 0;
      enumerate_paths(d, conn, [&](const path& p) {
        expected.push_back(p.cells);
        cells += p.cells.size();
        return true;
      });
      const path_list list = list_paths(d, conn);
      ASSERT_EQ(list.size(), expected.size()) << d.str();
      EXPECT_EQ(list.total_cells(), cells) << d.str();
      std::size_t i = 0;
      for (const path_cells p : list) {
        EXPECT_TRUE(std::ranges::equal(p, expected[i])) << d.str() << " #" << i;
        ++i;
      }
      EXPECT_EQ(i, expected.size());
    }
  }
}

TEST(Paths, VisitorCanAbort) {
  int seen = 0;
  const bool completed =
      enumerate_paths({4, 4}, connectivity::four_top_bottom, [&](const path&) {
        return ++seen < 5;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 5);
}

TEST(Dims, Helpers) {
  const dims d{3, 4};
  EXPECT_EQ(d.size(), 12);
  EXPECT_EQ(d.cell(1, 2), 6);
  EXPECT_EQ(d.row_of(6), 1);
  EXPECT_EQ(d.col_of(6), 2);
  EXPECT_EQ(d.transposed(), (dims{4, 3}));
  EXPECT_EQ(d.str(), "3x4");
  EXPECT_THROW((void)d.cell(3, 0), check_error);
}

TEST(PaperTable1, RangeChecked) {
  EXPECT_THROW((void)paper_table1(1, 3), check_error);
  EXPECT_THROW((void)paper_table1(3, 9), check_error);
  EXPECT_EQ(paper_table1(8, 8).function_products, 797048u);
  EXPECT_EQ(paper_table1(8, 8).dual_products, 3779226u);
}

}  // namespace
}  // namespace janus::lattice
