#include "lattice/paths.hpp"

#include <array>

namespace janus::lattice {

namespace {

/// Iterative DFS enumerating minimal source→sink paths.
///
/// Minimality pruning: a cell may be appended only when exactly one of its
/// neighbors (under the same connectivity) is already on the path — namely the
/// current last cell. This enforces self-avoidance and the no-shortcut
/// property in one test; see the header comment for why the resulting paths
/// are exactly the irredundant products.
class path_enumerator {
 public:
  path_enumerator(const dims& d, connectivity conn) : d_(d), conn_(conn) {
    in_path_.assign(static_cast<std::size_t>(d_.size()), 0);
  }

  bool run(const std::function<bool(const path&)>& visit) {
    const int starts = (conn_ == connectivity::four_top_bottom) ? d_.cols : d_.rows;
    for (int s = 0; s < starts; ++s) {
      const int start_cell = (conn_ == connectivity::four_top_bottom)
                                 ? d_.cell(0, s)
                                 : d_.cell(s, 0);
      if (!dfs(start_cell, visit)) {
        return false;
      }
    }
    return true;
  }

 private:
  [[nodiscard]] bool at_sink(int cell) const {
    return (conn_ == connectivity::four_top_bottom)
               ? d_.row_of(cell) == d_.rows - 1
               : d_.col_of(cell) == d_.cols - 1;
  }
  [[nodiscard]] bool at_source(int cell) const {
    return (conn_ == connectivity::four_top_bottom)
               ? d_.row_of(cell) == 0
               : d_.col_of(cell) == 0;
  }

  /// Neighbor cells of `cell` under the active connectivity.
  int neighbors(int cell, std::array<int, 8>& out) const {
    const int r = d_.row_of(cell);
    const int c = d_.col_of(cell);
    int count = 0;
    const bool diag = (conn_ == connectivity::eight_left_right);
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        if (dr == 0 && dc == 0) {
          continue;
        }
        if (!diag && dr != 0 && dc != 0) {
          continue;
        }
        const int nr = r + dr;
        const int nc = c + dc;
        if (nr < 0 || nr >= d_.rows || nc < 0 || nc >= d_.cols) {
          continue;
        }
        out[static_cast<std::size_t>(count++)] = d_.cell(nr, nc);
      }
    }
    return count;
  }

  /// A cell is appendable when it is off-path, not on the source plate, and
  /// its only on-path neighbor is the current last cell.
  [[nodiscard]] bool can_append(int cell, int last) const {
    if (in_path_[static_cast<std::size_t>(cell)] != 0 || at_source(cell)) {
      return false;
    }
    std::array<int, 8> nbr{};
    const int n = neighbors(cell, nbr);
    for (int i = 0; i < n; ++i) {
      const int other = nbr[static_cast<std::size_t>(i)];
      if (in_path_[static_cast<std::size_t>(other)] != 0 && other != last) {
        return false;
      }
    }
    return true;
  }

  bool dfs(int start, const std::function<bool(const path&)>& visit) {
    current_.cells.clear();
    current_.cells.push_back(static_cast<std::uint16_t>(start));
    in_path_[static_cast<std::size_t>(start)] = 1;

    // Explicit stack of per-level neighbor cursors.
    struct frame {
      std::array<int, 8> nbr;
      int count;
      int next;
    };
    std::vector<frame> stack;

    bool keep_going = true;
    if (at_sink(start)) {
      keep_going = visit(current_);  // single-cell path (1-row / 1-col lattice)
    } else {
      frame f{};
      f.count = neighbors(start, f.nbr);
      f.next = 0;
      stack.push_back(f);
    }

    while (keep_going && !stack.empty()) {
      frame& top = stack.back();
      const int last = current_.cells.back();
      bool descended = false;
      while (top.next < top.count) {
        const int cand = top.nbr[static_cast<std::size_t>(top.next++)];
        if (!can_append(cand, last)) {
          continue;
        }
        current_.cells.push_back(static_cast<std::uint16_t>(cand));
        in_path_[static_cast<std::size_t>(cand)] = 1;
        if (at_sink(cand)) {
          keep_going = visit(current_);
          current_.cells.pop_back();
          in_path_[static_cast<std::size_t>(cand)] = 0;
          if (!keep_going) {
            break;
          }
          continue;  // stay on the same frame, try further neighbors
        }
        frame f{};
        f.count = neighbors(cand, f.nbr);
        f.next = 0;
        stack.push_back(f);
        descended = true;
        break;
      }
      if (!keep_going) {
        break;
      }
      if (!descended) {
        // Exhausted this frame: backtrack.
        stack.pop_back();
        const int done = current_.cells.back();
        current_.cells.pop_back();
        in_path_[static_cast<std::size_t>(done)] = 0;
      }
    }

    // Unwind any remaining state (early abort).
    for (const std::uint16_t c : current_.cells) {
      in_path_[c] = 0;
    }
    current_.cells.clear();
    return keep_going;
  }

  dims d_;
  connectivity conn_;
  std::vector<std::uint8_t> in_path_;
  path current_;
};

}  // namespace

bool enumerate_paths(const dims& d, connectivity conn,
                     const std::function<bool(const path&)>& visit) {
  JANUS_CHECK_MSG(d.rows >= 1 && d.cols >= 1, "lattice must be non-empty");
  JANUS_CHECK_MSG(d.size() <= 0xffff, "lattice too large for 16-bit cells");
  path_enumerator e(d, conn);
  return e.run(visit);
}

void path_list::push_back(path_cells cells) {
  JANUS_CHECK_MSG(cells_.size() + cells.size() <= 0xffffffffu,
                  "path list too large for 32-bit offsets");
  cells_.insert(cells_.end(), cells.begin(), cells.end());
  offsets_.push_back(static_cast<std::uint32_t>(cells_.size()));
}

path_list list_paths(const dims& d, connectivity conn) {
  path_list out;
  enumerate_paths(d, conn, [&](const path& p) {
    out.push_back(p.cells);
    return true;
  });
  return out;
}

std::uint64_t count_paths(const dims& d, connectivity conn) {
  std::uint64_t count = 0;
  enumerate_paths(d, conn, [&](const path&) {
    ++count;
    return true;
  });
  return count;
}

table1_entry paper_table1(int rows, int cols) {
  JANUS_CHECK_MSG(rows >= 2 && rows <= 8 && cols >= 2 && cols <= 8,
                  "paper Table I covers 2..8 only");
  // Top value of each entry: products of f_mxn; bottom value: of its dual.
  static constexpr std::uint64_t function_counts[7][7] = {
      {2, 3, 4, 5, 6, 7, 8},
      {4, 9, 16, 25, 36, 49, 64},
      {6, 17, 36, 67, 118, 203, 344},
      {10, 37, 94, 205, 436, 957, 2146},
      {16, 77, 236, 621, 1668, 4883, 14880},
      {26, 163, 602, 1905, 6562, 26317, 110838},
      {42, 343, 1528, 5835, 25686, 139231, 797048},
  };
  static constexpr std::uint64_t dual_counts[7][7] = {
      {4, 8, 16, 32, 64, 128, 256},
      {7, 17, 41, 99, 239, 577, 1393},
      {10, 28, 78, 216, 600, 1666, 4626},
      {13, 41, 139, 453, 1497, 4981, 16539},
      {16, 56, 250, 1018, 4286, 18730, 81192},
      {19, 73, 461, 2439, 13833, 86963, 539537},
      {22, 92, 872, 6004, 45788, 421182, 3779226},
  };
  return {function_counts[rows - 2][cols - 2], dual_counts[rows - 2][cols - 2]};
}

}  // namespace janus::lattice
