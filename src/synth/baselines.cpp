#include "synth/baselines.hpp"

#include "bf/exact_min.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace janus::synth {

using lattice::cell_assign;
using lattice::dims;
using lattice::lattice_mapping;
using lm::target_spec;

janus_options exact6_options(const janus_options& base) {
  janus_options o = base;
  // Baselines converge to method-specific sizes; never share the
  // NP-canonical store with the JANUS pipeline.
  o.solutions = nullptr;
  o.bound_set = upper_bounds::oub;
  o.lm.encode.use_degree_rules = false;
  o.lm.encode.strict_product_rules = false;
  o.lm.encode.tl_isop_literals_only = false;
  return o;
}

janus_options approx6_options(const janus_options& base) {
  janus_options o = base;
  o.solutions = nullptr;  // see exact6_options
  o.bound_set = upper_bounds::oub;
  o.lm.encode.use_degree_rules = false;
  o.lm.encode.strict_product_rules = true;
  return o;
}

janus_result run_heuristic11(const target_spec& target,
                             const janus_options& base) {
  janus_options o = base;
  o.solutions = nullptr;  // see exact6_options
  o.bound_set = upper_bounds::oub;
  janus_synthesizer engine(o);
  janus_result result;
  stopwatch clock;
  const deadline budget = deadline::in_seconds(o.time_limit_s);

  const auto bounds = engine.compute_bounds(target, budget);
  const bound_solution* best_bound = bounds.best();
  JANUS_CHECK(best_bound != nullptr);
  result.lower_bound = std::min(bounds.lower_bound, best_bound->size());
  result.old_upper_bound = best_bound->size();
  result.new_upper_bound = best_bound->size();
  result.ub_method = best_bound->method;

  // Promising-candidate local search: from the bound solution, drop columns
  // at the same height while that fits, then drop a row, re-fitting up to
  // the same total size; stop at the first height that does not fit.
  const lm::lm_options& lm_options = engine.options().lm;
  lattice_mapping best = best_bound->mapping;
  while (true) {
    // Same height: only narrowing, so the column range is never read.
    best = *fit_at_height(target, best, best.grid().rows, 1, 0, engine.cache(),
                          lm_options, budget, &result);
    const dims cur = best.grid();
    if (cur.rows == 1) {
      break;
    }
    std::optional<lattice_mapping> lower = fit_at_height(
        target, best, cur.rows - 1, cur.cols, (cur.size() - 1) / (cur.rows - 1),
        engine.cache(), lm_options, budget, &result);
    if (!lower.has_value()) {
      break;
    }
    best = std::move(*lower);
  }
  result.hit_time_limit = budget.expired() || lm_options.cancel.cancelled();
  JANUS_CHECK(best.realizes(target.function()));
  result.solution = std::move(best);
  result.seconds = clock.seconds();
  return result;
}

janus_result run_pcircuit9(const target_spec& target,
                           const janus_options& base) {
  janus_result result;
  stopwatch clock;
  const deadline budget = deadline::in_seconds(base.time_limit_s);

  janus_options sub = base;
  sub.solutions = nullptr;  // see exact6_options
  sub.bound_set = upper_bounds::no_ds;  // the decomposition plays DS's role
  sub.time_limit_s = base.time_limit_s * 0.45;

  if (target.is_constant() || target.num_vars() == 0) {
    janus_synthesizer engine(sub);
    return engine.run(target);
  }

  // Split on the variable balancing the cofactors' product counts.
  int split = -1;
  std::size_t best_balance = ~std::size_t{0};
  for (int v = 0; v < target.num_vars(); ++v) {
    if (target.function().independent_of(v)) {
      continue;
    }
    const auto f0 = target.function().cofactor(v, false);
    const auto f1 = target.function().cofactor(v, true);
    const std::size_t c0 = bf::minimize(f0).num_cubes();
    const std::size_t c1 = bf::minimize(f1).num_cubes();
    const std::size_t balance = c0 > c1 ? c0 - c1 : c1 - c0;
    if (balance < best_balance) {
      best_balance = balance;
      split = v;
    }
  }
  JANUS_CHECK(split >= 0);

  const auto synthesize_part = [&](const bf::truth_table& fn,
                                   bool negated) -> std::optional<lattice_mapping> {
    if (fn.is_zero()) {
      return std::nullopt;  // this branch contributes nothing
    }
    lattice_mapping part(dims{1, 1}, target.num_vars());
    if (fn.is_one()) {
      part.set(0, 0, cell_assign::one());
    } else {
      janus_synthesizer engine(sub);
      const janus_result r =
          engine.run(target_spec::from_function(fn, target.name() + "_cf"));
      if (!r.solution.has_value()) {
        return std::nullopt;
      }
      part = *r.solution;
    }
    // AND with the split literal: append a full row of it at the bottom.
    lattice_mapping out(dims{part.grid().rows + 1, part.grid().cols},
                        target.num_vars());
    blit(out, part, 0, 0);
    for (int c = 0; c < part.grid().cols; ++c) {
      out.set(part.grid().rows, c, cell_assign::lit(split, negated));
    }
    return out;
  };

  const auto p0 = synthesize_part(target.function().cofactor(split, false),
                                  /*negated=*/true);
  const auto p1 = synthesize_part(target.function().cofactor(split, true),
                                  /*negated=*/false);
  std::optional<lattice_mapping> combined;
  if (p0.has_value() && p1.has_value()) {
    combined = lattice::multi_lattice_mapping::merge({*p0, *p1}).grid();
  } else if (p0.has_value()) {
    combined = *p0;
  } else if (p1.has_value()) {
    combined = *p1;
  }
  if (!combined.has_value() || !combined->realizes(target.function())) {
    // Degenerate decomposition: fall back to plain synthesis.
    janus_synthesizer engine(sub);
    return engine.run(target);
  }
  result.solution = std::move(*combined);
  const int size = result.solution->size();
  result.new_upper_bound = result.old_upper_bound = size;
  lm::lattice_info_cache paths(base.max_paths);
  result.lower_bound =
      std::min(lower_bound_structural(target, paths, size), size);
  result.ub_method = "pcircuit";
  result.hit_time_limit = budget.expired();
  result.seconds = clock.seconds();
  return result;
}

}  // namespace janus::synth
