#include "synth/bounds.hpp"

#include <algorithm>
#include <utility>

#include "bf/exact_min.hpp"
#include "lm/structural.hpp"
#include "util/log.hpp"

namespace janus::synth {

using bf::cover;
using bf::cube;
using bf::literal;
using bf::truth_table;
using lattice::cell_assign;
using lattice::dims;
using lattice::lattice_mapping;
using lm::target_spec;

namespace {

/// A literal present in both cubes (same variable, same polarity). For a
/// non-constant f, every product of f shares a literal with every product of
/// f^D (Altun & Riedel) — the basis of the DP construction.
std::optional<literal> common_literal(const cube& a, const cube& b) {
  const std::uint32_t pos = a.pos_mask() & b.pos_mask();
  const std::uint32_t neg = a.neg_mask() & b.neg_mask();
  for (int v = 0; v < cube::max_vars; ++v) {
    if ((pos >> v) & 1u) {
      return literal{v, false};
    }
    if ((neg >> v) & 1u) {
      return literal{v, true};
    }
  }
  return std::nullopt;
}

/// Column holding `c`'s literals from the top, rest filled with `fill`.
lattice_mapping product_column(const cube& c, int rows, int num_vars,
                               cell_assign fill) {
  lattice_mapping col(dims{rows, 1}, num_vars);
  const auto lits = c.literals();
  for (int r = 0; r < rows; ++r) {
    col.set(r, 0,
            r < static_cast<int>(lits.size())
                ? cell_assign::lit(lits[static_cast<std::size_t>(r)].variable,
                                   lits[static_cast<std::size_t>(r)].negated)
                : fill);
  }
  return col;
}

/// Side-by-side concatenation without separator (equal row counts).
lattice_mapping hconcat(const lattice_mapping& a, const lattice_mapping& b) {
  JANUS_CHECK(a.grid().rows == b.grid().rows);
  lattice_mapping out(dims{a.grid().rows, a.grid().cols + b.grid().cols},
                      a.num_target_vars());
  blit(out, a, 0, 0);
  blit(out, b, 0, a.grid().cols);
  return out;
}

/// Stacked concatenation without separator (equal column counts).
lattice_mapping vstack(const lattice_mapping& a, const lattice_mapping& b) {
  JANUS_CHECK(a.grid().cols == b.grid().cols);
  lattice_mapping out(dims{a.grid().rows + b.grid().rows, a.grid().cols},
                      a.num_target_vars());
  blit(out, a, 0, 0);
  blit(out, b, a.grid().rows, 0);
  return out;
}

lattice_mapping uniform_column(int rows, int num_vars, cell_assign a) {
  lattice_mapping col(dims{rows, 1}, num_vars);
  for (int r = 0; r < rows; ++r) {
    col.set(r, 0, a);
  }
  return col;
}

lattice_mapping uniform_row(int cols, int num_vars, cell_assign a) {
  lattice_mapping row(dims{1, cols}, num_vars);
  for (int c = 0; c < cols; ++c) {
    row.set(0, c, a);
  }
  return row;
}

/// Sum-of-literals truth table of a cube (the POS clause it dualizes to).
truth_table literal_sum(const cube& c, int num_vars) {
  truth_table t(num_vars);
  for (const literal l : c.literals()) {
    const truth_table v = truth_table::variable(num_vars, l.variable);
    t |= l.negated ? ~v : v;
  }
  return t;
}

}  // namespace

std::optional<bound_solution> build_dp(const target_spec& t) {
  if (t.is_constant() || t.num_products() == 0 || t.num_dual_products() == 0) {
    return std::nullopt;
  }
  const int rows = static_cast<int>(t.num_dual_products());
  const int cols = static_cast<int>(t.num_products());
  lattice_mapping m(dims{rows, cols}, t.num_vars());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto shared = common_literal(
          t.dual_sop()[static_cast<std::size_t>(r)],
          t.sop()[static_cast<std::size_t>(c)]);
      if (!shared.has_value()) {
        return std::nullopt;  // degenerate target
      }
      m.set(r, c, cell_assign::lit(shared->variable, shared->negated));
    }
  }
  if (!m.realizes(t.function())) {
    return std::nullopt;
  }
  return bound_solution{"DP", std::move(m)};
}

std::optional<bound_solution> build_ps(const target_spec& t) {
  if (t.is_constant() || t.num_products() == 0) {
    return std::nullopt;
  }
  const int rows = t.degree();
  lattice_mapping acc =
      product_column(t.sop()[0], rows, t.num_vars(), cell_assign::one());
  for (std::size_t j = 1; j < t.num_products(); ++j) {
    acc = hconcat(acc, uniform_column(rows, t.num_vars(), cell_assign::zero()));
    acc = hconcat(acc, product_column(t.sop()[j], rows, t.num_vars(),
                                      cell_assign::one()));
  }
  if (!acc.realizes(t.function())) {
    return std::nullopt;
  }
  return bound_solution{"PS", std::move(acc)};
}

std::optional<bound_solution> build_dps(const target_spec& t) {
  if (t.is_constant() || t.num_dual_products() == 0) {
    return std::nullopt;
  }
  const int cols = t.dual_degree();
  const auto dual_row = [&](const cube& q) {
    lattice_mapping row(dims{1, cols}, t.num_vars());
    const auto lits = q.literals();
    for (int c = 0; c < cols; ++c) {
      row.set(0, c,
              c < static_cast<int>(lits.size())
                  ? cell_assign::lit(lits[static_cast<std::size_t>(c)].variable,
                                     lits[static_cast<std::size_t>(c)].negated)
                  : cell_assign::zero());
    }
    return row;
  };
  lattice_mapping acc = dual_row(t.dual_sop()[0]);
  for (std::size_t i = 1; i < t.num_dual_products(); ++i) {
    acc = vstack(acc, uniform_row(cols, t.num_vars(), cell_assign::one()));
    acc = vstack(acc, dual_row(t.dual_sop()[i]));
  }
  if (!acc.realizes(t.function())) {
    return std::nullopt;
  }
  return bound_solution{"DPS", std::move(acc)};
}

// ---------------------------------------------------------------------------
// IPS
// ---------------------------------------------------------------------------

std::optional<bound_solution> build_ips(const target_spec& t,
                                        lm::lattice_info_cache& cache,
                                        const lm::lm_options& pair_options,
                                        deadline budget) {
  if (t.is_constant() || t.num_products() == 0) {
    return std::nullopt;
  }
  const int rows = t.degree();
  const int n = t.num_vars();

  // Partition products by literal count.
  std::vector<cube> big;     // > 2 literals
  std::vector<cube> twos;    // exactly 2
  std::vector<cube> singles; // exactly 1
  for (const cube& p : t.sop().cubes()) {
    const int k = p.num_literals();
    (k > 2 ? big : k == 2 ? twos : singles).push_back(p);
  }

  // Blocks: (mapping, function it realizes).
  struct block {
    lattice_mapping m;
    truth_table fn;
  };
  std::vector<block> blocks;

  // Rule iii: pair large products on a δ×2 lattice when the dual of their
  // 2-product sum has at most δ products.
  std::vector<bool> paired(big.size(), false);
  if (rows >= 2) {
    for (std::size_t i = 0; i < big.size(); ++i) {
      if (paired[i] || budget.expired()) {
        continue;
      }
      for (std::size_t j = i + 1; j < big.size(); ++j) {
        if (paired[j]) {
          continue;
        }
        cover pair_cover(n);
        pair_cover.add(big[i]);
        pair_cover.add(big[j]);
        const truth_table pair_fn = pair_cover.to_truth_table();
        cover pair_dual = bf::minimize(pair_fn.dual());
        if (static_cast<int>(pair_dual.num_cubes()) > rows) {
          continue;
        }
        const target_spec pair_target =
            target_spec::from_function(pair_fn, "", std::move(pair_dual));
        lm::lm_options probe = pair_options;
        probe.sat_time_limit_s = std::min(probe.sat_time_limit_s, 10.0);
        const lm::lm_result r =
            lm::solve_lm(pair_target, cache.get(dims{rows, 2}), probe, budget);
        if (r.status == lm::lm_status::realizable) {
          blocks.push_back({*r.mapping, pair_fn});
          paired[i] = paired[j] = true;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < big.size(); ++i) {
    if (!paired[i]) {
      blocks.push_back({product_column(big[i], rows, n, cell_assign::one()),
                        big[i].to_truth_table(n)});
    }
  }
  // Rule ii: two-literal products — one literal on the δth row, the other on
  // the remaining rows; needs no isolation column of its own.
  for (const cube& p : twos) {
    const auto lits = p.literals();
    lattice_mapping col(dims{rows, 1}, n);
    for (int r = 0; r < rows - 1; ++r) {
      col.set(r, 0, cell_assign::lit(lits[0].variable, lits[0].negated));
    }
    col.set(rows - 1, 0, cell_assign::lit(lits[1].variable, lits[1].negated));
    blocks.push_back({std::move(col), p.to_truth_table(n)});
  }
  // Rule i: single-literal products double as isolation columns; interleave
  // them between the other blocks.
  std::vector<block> ordered;
  std::size_t next_single = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0 && next_single < singles.size()) {
      const cube& s = singles[next_single++];
      const auto l = s.literals()[0];
      ordered.push_back({uniform_column(rows, n,
                                        cell_assign::lit(l.variable, l.negated)),
                         s.to_truth_table(n)});
    }
    ordered.push_back(blocks[i]);
  }
  for (; next_single < singles.size(); ++next_single) {
    const cube& s = singles[next_single];
    const auto l = s.literals()[0];
    ordered.push_back({uniform_column(rows, n,
                                      cell_assign::lit(l.variable, l.negated)),
                       s.to_truth_table(n)});
  }
  JANUS_CHECK(!ordered.empty());

  // Verify-guided assembly: append each block, inserting a 0-isolation column
  // only when the direct concatenation breaks the accumulated function.
  lattice_mapping acc = ordered[0].m;
  truth_table acc_fn = ordered[0].fn;
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    const truth_table next_fn = acc_fn | ordered[i].fn;
    lattice_mapping direct = hconcat(acc, ordered[i].m);
    if (direct.realized_function() == next_fn) {
      acc = std::move(direct);
    } else {
      acc = hconcat(hconcat(acc, uniform_column(rows, n, cell_assign::zero())),
                    ordered[i].m);
      JANUS_CHECK_MSG(acc.realized_function() == next_fn,
                      "IPS assembly broken even with isolation");
    }
    acc_fn = next_fn;
  }
  if (!acc.realizes(t.function())) {
    return std::nullopt;
  }
  return bound_solution{"IPS", std::move(acc)};
}

// ---------------------------------------------------------------------------
// IDPS
// ---------------------------------------------------------------------------

std::optional<bound_solution> build_idps(const target_spec& t,
                                         deadline budget) {
  if (t.is_constant() || t.num_dual_products() == 0) {
    return std::nullopt;
  }
  const int cols = t.dual_degree();
  const int n = t.num_vars();

  std::vector<cube> big;
  std::vector<cube> twos;
  std::vector<cube> singles;
  for (const cube& q : t.dual_sop().cubes()) {
    const int k = q.num_literals();
    (k > 2 ? big : k == 2 ? twos : singles).push_back(q);
  }

  struct block {
    lattice_mapping m;
    truth_table factor;  // the POS factor this block must contribute
  };
  std::vector<block> blocks;

  // Pairing rule (dual of rule iii): two large dual products fit a 2×γ block
  // when the dual of their sum has at most γ products — one product of that
  // dual per column, the q1-literal above the q2-literal.
  std::vector<bool> paired(big.size(), false);
  for (std::size_t i = 0; i < big.size(); ++i) {
    if (paired[i] || budget.expired()) {
      continue;
    }
    for (std::size_t j = i + 1; j < big.size(); ++j) {
      if (paired[j]) {
        continue;
      }
      cover pair_cover(n);
      pair_cover.add(big[i]);
      pair_cover.add(big[j]);
      const cover cross = bf::minimize(pair_cover.to_truth_table().dual());
      if (static_cast<int>(cross.num_cubes()) > cols || cross.empty()) {
        continue;
      }
      lattice_mapping m(dims{2, cols}, n);
      bool ok = true;
      for (int c = 0; c < cols; ++c) {
        // Repeat the last product when the cross cover is narrower than γ.
        const cube& prod = cross[std::min<std::size_t>(
            static_cast<std::size_t>(c), cross.num_cubes() - 1)];
        cell_assign top = cell_assign::zero();
        cell_assign bottom = cell_assign::zero();
        bool have_top = false;
        bool have_bottom = false;
        for (const literal l : prod.literals()) {
          const bool in_q1 = big[i].has_literal(l.variable, l.negated);
          const bool in_q2 = big[j].has_literal(l.variable, l.negated);
          if (in_q1) {
            top = cell_assign::lit(l.variable, l.negated);
            have_top = true;
          }
          if (in_q2) {
            bottom = cell_assign::lit(l.variable, l.negated);
            have_bottom = true;
          }
        }
        if (!have_top || !have_bottom) {
          ok = false;
          break;
        }
        m.set(0, c, top);
        m.set(1, c, bottom);
      }
      if (!ok) {
        continue;
      }
      const truth_table factor =
          literal_sum(big[i], n) & literal_sum(big[j], n);
      // The block must realize exactly its factor when standing alone.
      if (m.realized_function() != factor) {
        continue;
      }
      blocks.push_back({std::move(m), factor});
      paired[i] = paired[j] = true;
      break;
    }
  }
  const auto solo_row = [&](const cube& q) {
    lattice_mapping row(dims{1, cols}, n);
    const auto lits = q.literals();
    for (int c = 0; c < cols; ++c) {
      row.set(0, c,
              c < static_cast<int>(lits.size())
                  ? cell_assign::lit(lits[static_cast<std::size_t>(c)].variable,
                                     lits[static_cast<std::size_t>(c)].negated)
                  : cell_assign::zero());
    }
    return row;
  };
  for (std::size_t i = 0; i < big.size(); ++i) {
    if (!paired[i]) {
      blocks.push_back({solo_row(big[i]), literal_sum(big[i], n)});
    }
  }
  // Dual of rule ii: two-literal dual product — one literal on the γth
  // column, the other everywhere else.
  for (const cube& q : twos) {
    const auto lits = q.literals();
    lattice_mapping row(dims{1, cols}, n);
    for (int c = 0; c < cols - 1; ++c) {
      row.set(0, c, cell_assign::lit(lits[0].variable, lits[0].negated));
    }
    row.set(0, cols - 1, cell_assign::lit(lits[1].variable, lits[1].negated));
    blocks.push_back({std::move(row), literal_sum(q, n)});
  }
  // Dual of rule i: single-literal dual products double as isolation rows.
  std::vector<block> ordered;
  std::size_t next_single = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0 && next_single < singles.size()) {
      const cube& s = singles[next_single++];
      const auto l = s.literals()[0];
      ordered.push_back({uniform_row(cols, n,
                                     cell_assign::lit(l.variable, l.negated)),
                         literal_sum(s, n)});
    }
    ordered.push_back(blocks[i]);
  }
  for (; next_single < singles.size(); ++next_single) {
    const cube& s = singles[next_single];
    const auto l = s.literals()[0];
    ordered.push_back({uniform_row(cols, n,
                                   cell_assign::lit(l.variable, l.negated)),
                       literal_sum(s, n)});
  }
  JANUS_CHECK(!ordered.empty());

  // Verify-guided assembly with all-1 isolation rows.
  lattice_mapping acc = ordered[0].m;
  truth_table acc_fn = ordered[0].factor;
  for (std::size_t i = 1; i < ordered.size(); ++i) {
    const truth_table next_fn = acc_fn & ordered[i].factor;
    lattice_mapping direct = vstack(acc, ordered[i].m);
    if (direct.realized_function() == next_fn) {
      acc = std::move(direct);
    } else {
      acc = vstack(vstack(acc, uniform_row(cols, n, cell_assign::one())),
                   ordered[i].m);
      JANUS_CHECK_MSG(acc.realized_function() == next_fn,
                      "IDPS assembly broken even with isolation");
    }
    acc_fn = next_fn;
  }
  if (!acc.realizes(t.function())) {
    return std::nullopt;
  }
  return bound_solution{"IDPS", std::move(acc)};
}

int lower_bound_structural(const target_spec& t, lm::lattice_info_cache& cache,
                           int max_size) {
  for (int s = 1; s <= max_size; ++s) {
    for (int m = 1; m <= s; ++m) {
      if (s % m != 0) {
        continue;
      }
      const dims d{m, s / m};
      if (lm::structural_check(t, cache.get(d))) {
        return s;
      }
    }
  }
  return max_size;
}

}  // namespace janus::synth
