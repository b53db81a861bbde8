#include "lm/encoding.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace janus::lm {

using lattice::cell_assign;
using lattice::path_cells;

namespace {
/// Products with more literals than this must be realized by a path longer
/// than it (the paper's empirically chosen 5).
constexpr int kLongProductThreshold = 5;
/// Rule families whose auxiliary path selectors would exceed this many
/// variables are skipped: the rules only prune, so dropping them is sound.
constexpr std::uint64_t kMaxRuleAuxVars = 50'000;
}  // namespace

std::uint64_t estimate_encoding_clauses(const target_spec& target,
                                        const lattice_info& info,
                                        bool dual_side,
                                        const lm_encode_options& options) {
  const bf::truth_table& side_fn =
      dual_side ? target.dual_function() : target.function();
  const path_family& paths = dual_side ? info.paths_8lr : info.paths_4tb;
  const std::uint64_t cells = static_cast<std::uint64_t>(info.d.size());
  const std::uint64_t entries = side_fn.num_minterms();
  const std::uint64_t on = side_fn.count_ones();
  const std::uint64_t off = entries - on;
  // TL size: 2 constants + at most 2 literals per variable.
  const std::uint64_t tl =
      2 + 2 * static_cast<std::uint64_t>(target.num_vars());

  const std::uint64_t exactly_one = cells * (1 + tl * (tl - 1) / 2);
  const std::uint64_t link = cells * tl * entries;
  const std::uint64_t off_clauses = off * paths.size();
  // ON entries: one selector clause + per-path per-cell implications, plus
  // the helper facts (a few clauses per line).
  std::uint64_t per_on = 1 + paths.total_cells();
  if (options.use_helper_facts) {
    per_on += 4 * cells;
  }
  return exactly_one + link + off_clauses + on * per_on;
}

std::vector<cell_assign> build_target_literals(const target_spec& target,
                                               bool dual_side,
                                               const lm_encode_options& options) {
  std::vector<cell_assign> tl;
  tl.push_back(cell_assign::zero());
  tl.push_back(cell_assign::one());
  const int r = target.num_vars();
  std::vector<bool> use_pos(static_cast<std::size_t>(r), false);
  std::vector<bool> use_neg(static_cast<std::size_t>(r), false);
  if (options.tl_isop_literals_only) {
    const bf::cover& side_sop = dual_side ? target.dual_sop() : target.sop();
    for (const bf::cube& c : side_sop.cubes()) {
      for (const bf::literal l : c.literals()) {
        (l.negated ? use_neg : use_pos)[static_cast<std::size_t>(l.variable)] =
            true;
      }
    }
  } else {
    std::fill(use_pos.begin(), use_pos.end(), true);
    std::fill(use_neg.begin(), use_neg.end(), true);
  }
  for (int v = 0; v < r; ++v) {
    if (use_pos[static_cast<std::size_t>(v)]) {
      tl.push_back(cell_assign::lit(v, false));
    }
    if (use_neg[static_cast<std::size_t>(v)]) {
      tl.push_back(cell_assign::lit(v, true));
    }
  }
  return tl;
}

std::vector<std::uint64_t> support_entries(const bf::truth_table& side_function,
                                           const std::vector<cell_assign>& tl) {
  std::uint64_t mask = 0;
  for (const cell_assign& a : tl) {
    if (!a.is_constant()) {
      mask |= std::uint64_t{1} << a.var;
    }
  }
  for (int v = 0; v < side_function.num_vars(); ++v) {
    JANUS_CHECK_MSG(((mask >> v) & 1) != 0 || side_function.independent_of(v),
                    "side function depends on a variable outside its TL");
  }
  // Ascending submasks of `mask`.
  std::vector<std::uint64_t> entries;
  std::uint64_t m = 0;
  do {
    entries.push_back(m);
    m = (m - mask) & mask;
  } while (m != 0);
  return entries;
}

// --------------------------------------------------------------------------
// lm_emitter — the shared clause-emission engine
// --------------------------------------------------------------------------

lm_emitter::lm_emitter(const target_spec& target, const lattice_info* info,
                       bool dual_side, const lm_encode_options& options,
                       const std::vector<cell_assign>& tl,
                       const lm_var_layout& layout, sat::cnf& out)
    : target_(target),
      info_(info),
      dual_side_(dual_side),
      options_(options),
      tl_(tl),
      layout_(layout),
      out_(out) {
  side_function_ = dual_side_ ? &target_.dual_function() : &target_.function();
  side_sop_ = dual_side_ ? &target_.dual_sop() : &target_.sop();
  if (info_ != nullptr) {
    JANUS_CHECK_MSG(!info_->oversized, "cannot encode an oversized lattice");
    // The only place path cells are materialized, for this side alone.
    side_paths_ =
        &(dual_side_ ? info_->paths_8lr : info_->paths_4tb).cells();
  }
}

void lm_emitter::add(std::span<const sat::lit> lits) {
  if (activation_ == sat::lit_undef) {
    out_.add_clause(lits);
    return;
  }
  clause_buffer_.assign(1, ~activation_);
  clause_buffer_.insert(clause_buffer_.end(), lits.begin(), lits.end());
  out_.add_clause(clause_buffer_);
}

void lm_emitter::add(std::initializer_list<sat::lit> lits) {
  add(std::span<const sat::lit>(lits.begin(), lits.size()));
}

void lm_emitter::emit_exactly_one(int cell) {
  const std::uint64_t before = out_.num_clauses();
  std::vector<sat::lit> group(tl_.size());
  for (std::size_t j = 0; j < tl_.size(); ++j) {
    group[j] = layout_.map_lit(cell, j);
  }
  out_.exactly_one(group);
  stats_.link_clauses += out_.num_clauses() - before;
}

void lm_emitter::emit_links(int cell, std::size_t i) {
  const std::uint64_t before = out_.num_clauses();
  const sat::lit value = layout_.val_lit(cell, i);
  for (std::size_t j = 0; j < tl_.size(); ++j) {
    const sat::lit mv = layout_.map_lit(cell, j);
    if (tl_[j].eval(layout_.entries[i])) {
      out_.add_binary(~mv, value);
    } else {
      out_.add_binary(~mv, ~value);
    }
  }
  stats_.link_clauses += out_.num_clauses() - before;
}

void lm_emitter::emit_entry(std::size_t i) {
  const std::uint64_t before = out_.num_clauses();
  if (!side_function_->get(layout_.entries[i])) {
    // Every irredundant path must be broken at this entry.
    std::vector<sat::lit> clause;
    for (const path_cells p : *side_paths_) {
      clause.clear();
      clause.reserve(p.size());
      for (const std::uint16_t cell : p) {
        clause.push_back(~layout_.val_lit(cell, i));
      }
      add(clause);
    }
    stats_.off_entry_clauses += out_.num_clauses() - before;
    return;
  }

  // ON entry: one selected path is fully on.
  std::vector<sat::lit> selectors;
  selectors.reserve(side_paths_->size());
  for (const path_cells p : *side_paths_) {
    const sat::lit sel = sat::lit::make(out_.new_var());
    selectors.push_back(sel);
    for (const std::uint16_t cell : p) {
      add({~sel, layout_.val_lit(cell, i)});
    }
  }
  add(selectors);

  if (options_.use_helper_facts) {
    // Fact (i): a connecting path crosses every transversal line, so each
    // row (primal) / column (dual side) holds at least one 1.
    const int lines = dual_side_ ? info_->d.cols : info_->d.rows;
    const int per_line = dual_side_ ? info_->d.rows : info_->d.cols;
    std::vector<sat::lit> line_clause;
    for (int line = 0; line < lines; ++line) {
      line_clause.clear();
      for (int k = 0; k < per_line; ++k) {
        const int cell = dual_side_ ? info_->d.cell(k, line) : info_->d.cell(line, k);
        line_clause.push_back(layout_.val_lit(cell, i));
      }
      add(line_clause);
    }
    // Fact (ii): between consecutive lines there is an adjacent ON pair
    // (vertically aligned for 4-connectivity; within one diagonal step for
    // the 8-connected dual view).
    for (int line = 0; line + 1 < lines; ++line) {
      std::vector<sat::lit> pair_clause;
      for (int k = 0; k < per_line; ++k) {
        const int a = dual_side_ ? info_->d.cell(k, line) : info_->d.cell(line, k);
        const int lo = dual_side_ ? std::max(0, k - 1) : k;
        const int hi = dual_side_ ? std::min(per_line - 1, k + 1) : k;
        for (int k2 = lo; k2 <= hi; ++k2) {
          const int b = dual_side_ ? info_->d.cell(k2, line + 1)
                                   : info_->d.cell(line + 1, k2);
          const sat::lit both = sat::lit::make(out_.new_var());
          add({~both, layout_.val_lit(a, i)});
          add({~both, layout_.val_lit(b, i)});
          pair_clause.push_back(both);
        }
      }
      add(pair_clause);
    }
  }
  stats_.on_entry_clauses += out_.num_clauses() - before;
}

void lm_emitter::add_realization_rule(
    const bf::cube& p, const std::vector<path_cells>& paths,
    bool allow_one) {
  const std::uint64_t before = out_.num_clauses();
  // Which TL indices are literals of p (plus constant 1 when allowed)?
  std::vector<std::size_t> allowed;
  std::vector<std::vector<std::size_t>> per_literal;  // TL indices per literal
  for (const bf::literal l : p.literals()) {
    std::vector<std::size_t> idx;
    for (std::size_t j = 0; j < tl_.size(); ++j) {
      const cell_assign& a = tl_[j];
      const bool matches =
          (a.k == cell_assign::kind::positive && !l.negated &&
           a.var == l.variable) ||
          (a.k == cell_assign::kind::negative && l.negated &&
           a.var == l.variable);
      if (matches) {
        idx.push_back(j);
        allowed.push_back(j);
      }
    }
    per_literal.push_back(std::move(idx));
  }
  if (allow_one) {
    for (std::size_t j = 0; j < tl_.size(); ++j) {
      if (tl_[j].k == cell_assign::kind::constant_one) {
        allowed.push_back(j);
      }
    }
  }
  std::sort(allowed.begin(), allowed.end());
  allowed.erase(std::unique(allowed.begin(), allowed.end()), allowed.end());

  std::vector<sat::lit> choice;
  choice.reserve(paths.size());
  for (const path_cells path : paths) {
    const sat::lit real = sat::lit::make(out_.new_var());
    choice.push_back(real);
    std::vector<sat::lit> clause;
    // Every cell of the path maps within the allowed set.
    for (const std::uint16_t cell : path) {
      clause.assign(1, ~real);
      for (const std::size_t j : allowed) {
        clause.push_back(layout_.map_lit(cell, j));
      }
      add(clause);
    }
    // Every literal of p is used by some cell of the path.
    for (const auto& idx : per_literal) {
      clause.assign(1, ~real);
      for (const std::uint16_t cell : path) {
        for (const std::size_t j : idx) {
          clause.push_back(layout_.map_lit(cell, j));
        }
      }
      add(clause);
    }
  }
  add(choice);  // some path realizes p
  stats_.rule_clauses += out_.num_clauses() - before;
}

void lm_emitter::emit_degree_rules() {
  const int lattice_degree = dual_side_ ? info_->max_len_8lr() : info_->max_len_4tb();
  const int target_degree = side_sop_->degree();

  std::uint64_t aux_estimate = 0;
  const auto paths_with = [&](auto pred) {
    std::vector<path_cells> out;
    for (const path_cells p : *side_paths_) {
      if (pred(static_cast<int>(p.size()))) {
        out.push_back(p);
      }
    }
    return out;
  };

  for (const bf::cube& p : side_sop_->cubes()) {
    const int len = p.num_literals();
    if (target_degree == lattice_degree && len == target_degree) {
      const auto paths = paths_with([&](int L) { return L == len; });
      aux_estimate += paths.size();
      if (aux_estimate > kMaxRuleAuxVars) {
        return;
      }
      add_realization_rule(p, paths, /*allow_one=*/false);
    } else if (len > kLongProductThreshold) {
      const auto paths = paths_with(
          [&](int L) { return L > kLongProductThreshold && L >= len; });
      aux_estimate += paths.size();
      if (aux_estimate > kMaxRuleAuxVars) {
        return;
      }
      add_realization_rule(p, paths, /*allow_one=*/true);
    }
  }
}

void lm_emitter::emit_strict_rules() {
  // Approx-[6]: every product, no exceptions, realized by a dedicated path
  // over only its own literals.
  std::uint64_t aux_estimate = 0;
  for (const bf::cube& p : side_sop_->cubes()) {
    const int len = p.num_literals();
    std::vector<path_cells> paths;
    for (const path_cells path : *side_paths_) {
      if (static_cast<int>(path.size()) >= len) {
        paths.push_back(path);
      }
    }
    aux_estimate += paths.size();
    if (aux_estimate > kMaxRuleAuxVars) {
      return;
    }
    add_realization_rule(p, paths, /*allow_one=*/false);
  }
}

void lm_emitter::emit_rules() {
  if (options_.strict_product_rules) {
    emit_strict_rules();
  } else if (options_.use_degree_rules) {
    emit_degree_rules();
  }
}

// --------------------------------------------------------------------------
// lm_encoder — the scratch (non-incremental) path
// --------------------------------------------------------------------------

lm_encoder::lm_encoder(const target_spec& target, const lattice_info& info,
                       bool dual_side, lm_encode_options options)
    : target_(target),
      info_(info),
      dual_side_(dual_side),
      options_(options) {
  JANUS_CHECK_MSG(!info_.oversized, "cannot encode an oversized lattice");
  build();
}

void lm_encoder::build() {
  tl_ = build_target_literals(target_, dual_side_, options_);
  layout_.entries = support_entries(
      dual_side_ ? target_.dual_function() : target_.function(), tl_);

  // Contiguous two-block layout: all mapping vars, then all value vars
  // (value vars entry-major: val[cell][i] = val_base + i * cells + cell).
  const int cells = info_.d.size();
  const std::size_t entries = layout_.entries.size();
  const sat::var map_base = formula_.new_vars(cells * static_cast<int>(tl_.size()));
  const sat::var val_base =
      formula_.new_vars(cells * static_cast<int>(entries));
  layout_.map_base.resize(static_cast<std::size_t>(cells));
  layout_.val_base.resize(static_cast<std::size_t>(cells));
  for (int cell = 0; cell < cells; ++cell) {
    layout_.map_base[static_cast<std::size_t>(cell)] =
        map_base + cell * static_cast<int>(tl_.size());
    layout_.val_base[static_cast<std::size_t>(cell)] = val_base + cell;
  }
  layout_.val_stride = cells;

  lm_emitter emitter(target_, &info_, dual_side_, options_, tl_, layout_,
                     formula_);
  for (int cell = 0; cell < cells; ++cell) {
    emitter.emit_exactly_one(cell);
  }
  for (std::size_t i = 0; i < entries; ++i) {
    for (int cell = 0; cell < cells; ++cell) {
      emitter.emit_links(cell, i);
    }
  }
  for (std::size_t i = 0; i < entries; ++i) {
    emitter.emit_entry(i);
  }
  emitter.emit_rules();

  stats_ = emitter.stats();
  stats_.num_vars = static_cast<std::uint64_t>(formula_.num_vars());
  stats_.num_clauses = formula_.num_clauses();
}

lattice::lattice_mapping decode_mapping(const sat::solver& s,
                                        const lm_var_layout& layout,
                                        const std::vector<cell_assign>& tl,
                                        const lattice::dims& d, int num_vars,
                                        bool dual_side) {
  lattice::lattice_mapping out(d, num_vars);
  for (int cell = 0; cell < d.size(); ++cell) {
    std::optional<cell_assign> chosen;
    for (std::size_t j = 0; j < tl.size(); ++j) {
      if (s.model_bool(layout.map_lit(cell, j).variable())) {
        JANUS_CHECK_MSG(!chosen.has_value(),
                        "model selects two wirings for one cell");
        chosen = tl[j];
      }
    }
    JANUS_CHECK_MSG(chosen.has_value(), "model leaves a cell unwired");
    const cell_assign a =
        dual_side ? chosen->with_constants_flipped() : *chosen;
    out.cells()[static_cast<std::size_t>(cell)] = a;
  }
  return out;
}

lattice::lattice_mapping lm_encoder::decode(const sat::solver& s) const {
  return decode_mapping(s, layout_, tl_, info_.d, target_.num_vars(),
                        dual_side_);
}

}  // namespace janus::lm
