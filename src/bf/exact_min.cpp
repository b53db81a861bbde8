#include "bf/exact_min.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "bf/espresso.hpp"
#include "util/check.hpp"

namespace janus::bf {

namespace {

struct cube_hash {
  std::size_t operator()(const cube& c) const noexcept {
    std::uint64_t h = (static_cast<std::uint64_t>(c.pos_mask()) << 32) |
                      c.neg_mask();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

std::optional<std::vector<cube>> all_primes(const truth_table& f,
                                            std::size_t max_primes) {
  const int n = f.num_vars();
  std::vector<cube> primes;
  if (f.is_zero()) {
    return primes;
  }
  if (f.is_one()) {
    primes.push_back(cube::one());
    return primes;
  }

  // Quine–McCluskey: start from onset minterms, merge cubes that differ in
  // exactly one variable's polarity, level by level. The sets only fix the
  // order (see the header), so none is reserved: that would change its
  // bucket count and so the order. Membership is answered by two flags per
  // cube, keyed by its base-3 code (digit v: 0 for x_v', 1 for x_v, 2 when
  // v is absent). A cube's literal count fixes its level, so one table
  // serves every level. It is dense up to 3^12 codes (531 KB), a hash map
  // above.
  constexpr std::uint8_t seen = 1;    // in some level's set
  constexpr std::uint8_t merged = 2;  // has a partner, so not prime
  const auto num_vars = static_cast<std::size_t>(n);
  std::vector<std::uint64_t> pow3(num_vars + 1, 1);
  for (std::size_t v = 0; v < num_vars; ++v) {
    pow3[v + 1] = 3 * pow3[v];
  }
  std::vector<std::uint8_t> dense(num_vars <= 12 ? pow3[num_vars] : 0);
  std::unordered_map<std::uint64_t, std::uint8_t> sparse;
  const auto flags = [&](std::uint64_t code) -> std::uint8_t& {
    return dense.empty() ? sparse[code] : dense[code];
  };
  const auto code_of = [&](const cube& c) {
    std::uint64_t code = pow3[num_vars] - 1;  // every digit 2
    for (std::uint32_t pos = c.pos_mask(); pos != 0; pos &= pos - 1) {
      code -= pow3[static_cast<std::size_t>(std::countr_zero(pos))];
    }
    for (std::uint32_t neg = c.neg_mask(); neg != 0; neg &= neg - 1) {
      code -= 2 * pow3[static_cast<std::size_t>(std::countr_zero(neg))];
    }
    return code;
  };

  std::unordered_set<cube, cube_hash> current;
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
    if (!f.get(m)) {
      continue;
    }
    cube c;
    for (int v = 0; v < n; ++v) {
      c.add_literal(v, ((m >> v) & 1) == 0);
    }
    current.insert(c);
    flags(code_of(c)) |= seen;
  }

  while (!current.empty()) {
    if (current.size() > max_primes) {
      return std::nullopt;
    }
    std::unordered_set<cube, cube_hash> next;
    for (const cube& c : current) {
      const std::uint64_t code = code_of(c);
      // The cube's variables in ascending order, as c.literals() lists
      // them, without allocating a vector per cube. A partner has the
      // cube's literal count, so a seen partner is one of `current`.
      for (std::uint32_t vars = c.pos_mask() | c.neg_mask(); vars != 0;
           vars &= vars - 1) {
        const int v = std::countr_zero(vars);
        const std::uint64_t step = pow3[static_cast<std::size_t>(v)];
        const bool positive = c.has_literal(v, /*negated=*/false);
        if ((flags(positive ? code - step : code + step) & seen) == 0) {
          continue;
        }
        flags(code) |= merged;
        std::uint8_t& wider_flags = flags(code + (positive ? 1 : 2) * step);
        if ((wider_flags & seen) != 0) {
          continue;
        }
        wider_flags |= seen;
        cube wider = c;
        wider.drop_variable(v);
        next.insert(wider);
        if (next.size() > max_primes) {
          return std::nullopt;
        }
      }
    }
    for (const cube& c : current) {
      if ((flags(code_of(c)) & merged) == 0) {
        primes.push_back(c);
        if (primes.size() > max_primes) {
          return std::nullopt;
        }
      }
    }
    current = std::move(next);
  }
  return primes;
}

namespace {

/// Branch-and-bound minimum unate covering.
class covering_solver {
 public:
  covering_solver(std::vector<std::vector<int>> row_to_cols,
                  std::vector<std::vector<int>> col_to_rows,
                  std::uint64_t max_nodes)
      : row_cols_(std::move(row_to_cols)),
        col_rows_(std::move(col_to_rows)),
        row_alive_(row_cols_.size(), true),
        max_nodes_(max_nodes) {}

  /// Minimum set of columns covering all rows, or nullopt when the node cap
  /// was exceeded before optimality was proven.
  std::optional<std::vector<int>> solve() {
    seed_greedy_incumbent();
    std::vector<int> chosen;
    recurse(chosen);
    if (aborted_) {
      return std::nullopt;
    }
    return best_;
  }

 private:
  /// Greedy set cover as the initial incumbent: without it, branch and bound
  /// starts from a trivial bound and crawls on dense tables (e.g. duals of
  /// sparse functions, whose onset is nearly the whole space).
  void seed_greedy_incumbent() {
    std::vector<bool> covered(row_alive_.size(), false);
    std::size_t remaining = row_alive_.size();
    std::vector<int> greedy;
    while (remaining > 0) {
      int best_col = -1;
      std::size_t best_gain = 0;
      for (std::size_t c = 0; c < col_rows_.size(); ++c) {
        std::size_t gain = 0;
        for (const int r : col_rows_[c]) {
          gain += covered[static_cast<std::size_t>(r)] ? 0 : 1;
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_col = static_cast<int>(c);
        }
      }
      if (best_col < 0) {
        break;  // uncoverable rows (cannot happen for prime tables)
      }
      greedy.push_back(best_col);
      for (const int r : col_rows_[static_cast<std::size_t>(best_col)]) {
        if (!covered[static_cast<std::size_t>(r)]) {
          covered[static_cast<std::size_t>(r)] = true;
          --remaining;
        }
      }
    }
    if (remaining == 0) {
      best_ = greedy;
      best_size_ = greedy.size();
    } else {
      best_size_ = col_rows_.size() + 1;
    }
  }

  /// Greedy lower bound: rows with pairwise-disjoint candidate columns each
  /// require a distinct column.
  [[nodiscard]] std::size_t lower_bound() const {
    std::vector<bool> used_col(col_rows_.size(), false);
    std::size_t bound = 0;
    for (std::size_t r = 0; r < row_alive_.size(); ++r) {
      if (!row_alive_[r]) {
        continue;
      }
      bool independent = true;
      for (const int c : row_cols_[r]) {
        if (used_col[static_cast<std::size_t>(c)]) {
          independent = false;
          break;
        }
      }
      if (independent) {
        ++bound;
        for (const int c : row_cols_[r]) {
          used_col[static_cast<std::size_t>(c)] = true;
        }
      }
    }
    return bound;
  }

  void choose(int col, std::vector<int>& chosen,
              std::vector<int>& killed_rows) {
    chosen.push_back(col);
    for (const int r : col_rows_[static_cast<std::size_t>(col)]) {
      if (row_alive_[static_cast<std::size_t>(r)]) {
        row_alive_[static_cast<std::size_t>(r)] = false;
        killed_rows.push_back(r);
      }
    }
  }

  void unchoose(std::vector<int>& chosen, const std::vector<int>& killed_rows) {
    chosen.pop_back();
    for (const int r : killed_rows) {
      row_alive_[static_cast<std::size_t>(r)] = true;
    }
  }

  void recurse(std::vector<int>& chosen) {
    if (aborted_ || ++nodes_ > max_nodes_) {
      aborted_ = true;
      return;
    }
    if (chosen.size() >= best_size_) {
      return;
    }
    // Find the uncovered row with the fewest columns.
    int pick_row = -1;
    std::size_t pick_width = col_rows_.size() + 1;
    for (std::size_t r = 0; r < row_alive_.size(); ++r) {
      if (!row_alive_[r]) {
        continue;
      }
      const std::size_t width = row_cols_[r].size();
      if (width == 0) {
        return;  // uncoverable row (cannot happen for prime tables)
      }
      if (width < pick_width) {
        pick_width = width;
        pick_row = static_cast<int>(r);
      }
    }
    if (pick_row < 0) {
      best_ = chosen;  // all rows covered
      best_size_ = chosen.size();
      return;
    }
    if (chosen.size() + lower_bound() >= best_size_) {
      return;
    }
    for (const int col : row_cols_[static_cast<std::size_t>(pick_row)]) {
      std::vector<int> killed;
      choose(col, chosen, killed);
      recurse(chosen);
      unchoose(chosen, killed);
      if (aborted_) {
        return;
      }
    }
  }

  std::vector<std::vector<int>> row_cols_;
  std::vector<std::vector<int>> col_rows_;
  std::vector<bool> row_alive_;
  std::vector<int> best_;
  std::size_t best_size_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t max_nodes_;
  bool aborted_ = false;
};

}  // namespace

std::optional<cover> exact_minimize(const truth_table& f,
                                    const exact_min_options& options) {
  const int n = f.num_vars();
  if (f.is_zero()) {
    return cover(n);
  }
  if (f.is_one()) {
    cover c(n);
    c.add(cube::one());
    return c;
  }
  const auto primes = all_primes(f, options.max_primes);
  if (!primes.has_value()) {
    return std::nullopt;
  }

  // Covering table: rows = onset minterms, columns = primes.
  std::vector<std::uint64_t> minterms;
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
    if (f.get(m)) {
      minterms.push_back(m);
    }
  }
  std::vector<std::vector<int>> row_cols(minterms.size());
  std::vector<std::vector<int>> col_rows(primes->size());
  for (std::size_t r = 0; r < minterms.size(); ++r) {
    for (std::size_t c = 0; c < primes->size(); ++c) {
      if ((*primes)[c].eval(minterms[r])) {
        row_cols[r].push_back(static_cast<int>(c));
        col_rows[c].push_back(static_cast<int>(r));
      }
    }
  }
  covering_solver solver(std::move(row_cols), std::move(col_rows),
                         options.max_bb_nodes);
  const auto solution = solver.solve();
  if (!solution.has_value()) {
    return std::nullopt;
  }
  cover out(n);
  for (const int c : *solution) {
    out.add((*primes)[static_cast<std::size_t>(c)]);
  }
  out.sort_desc_by_literals();
  JANUS_CHECK_MSG(out.to_truth_table() == f,
                  "exact minimizer produced a wrong cover");
  return out;
}

cover minimize(const truth_table& f, const exact_min_options& options) {
  if (auto exact = exact_minimize(f, options)) {
    return *exact;
  }
  cover heuristic = espresso_lite(f);
  heuristic.sort_desc_by_literals();
  return heuristic;
}

}  // namespace janus::bf
