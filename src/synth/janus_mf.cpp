#include "synth/janus_mf.hpp"

#include <algorithm>
#include <memory>

#include "util/log.hpp"

namespace janus::synth {

using lattice::cell_assign;
using lattice::dims;
using lattice::lattice_mapping;
using lattice::multi_lattice_mapping;
using lm::target_spec;

janus_mf_result run_janus_mf(const std::vector<target_spec>& targets,
                             const janus_options& options) {
  JANUS_CHECK(!targets.empty());
  janus_mf_result result;
  stopwatch total_clock;
  const deadline budget = deadline::in_seconds(options.time_limit_s);

  // Part 1: per-output JANUS, then merge with isolation columns. Half the
  // overall budget goes to Part 1; each output gets an equal share of what
  // actually *remains* of that half when it starts, so slack from fast
  // outputs flows to the later ones instead of being discarded, and the
  // floor keeps a tiny total budget from rounding to a useless per-output
  // sliver.
  constexpr double kMinOutputBudget = 0.1;
  const deadline part1_deadline = deadline::in_seconds(options.time_limit_s / 2.0);
  // One path-enumeration cache for the whole run: the per-output engines
  // (and their DS children) probe overlapping grids, and Part 2 revisits
  // them again.
  lm::lattice_info_cache shared_info(options.max_paths);
  std::vector<lattice_mapping> parts;
  parts.reserve(targets.size());
  result.output_time_limited.assign(targets.size(), false);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const target_spec& t = targets[i];
    janus_options per_output = options;
    per_output.lattice_info = &shared_info;
    per_output.time_limit_s =
        std::max(kMinOutputBudget, part1_deadline.remaining_seconds() /
                                       static_cast<double>(targets.size() - i));
    std::optional<lattice_mapping> part;
    bool starved = false;
    try {
      janus_synthesizer engine(per_output);
      janus_result r = engine.run(t);
      starved = r.hit_time_limit;
      part = std::move(r.solution);
    } catch (const no_upper_bound_error& e) {
      // A starved run can fail outright (no bound construction finished in
      // time); degrade to the constructive fallback below instead of
      // aborting the whole multi-output run. Only this specific condition is
      // absorbed — invariant failures (unverified solutions, cache-oracle
      // rejections) stay loud.
      JANUS_LOG(warn) << t.name() << ": part-1 JANUS failed (" << e.what()
                      << "); falling back to constructive bounds";
    }
    if (!part.has_value()) {
      // DP/PS/DPS are budget-independent constructions: this always yields a
      // verified (if unoptimized) lattice for the merge — force them on even
      // when the caller's options disabled them.
      janus_options fallback = options;
      fallback.lattice_info = &shared_info;
      fallback.time_limit_s = kMinOutputBudget;
      fallback.use_dp = true;
      fallback.use_ps = true;
      fallback.use_dps = true;
      fallback.use_ips = false;
      fallback.use_idps = false;
      fallback.use_ds = false;
      fallback.use_structural_lb = false;
      fallback.solutions = nullptr;  // never cache a fallback as final
      janus_synthesizer rescue(fallback);
      janus_result r = rescue.run(t);
      JANUS_CHECK_MSG(r.solution.has_value(),
                      "constructive fallback produced no lattice");
      starved = true;
      part = std::move(r.solution);
    }
    if (starved) {
      result.output_time_limited[i] = true;
      result.hit_time_limit = true;
    }
    parts.push_back(std::move(*part));
  }
  result.straightforward = multi_lattice_mapping::merge(parts);
  result.straightforward_seconds = total_clock.seconds();

  std::vector<bf::truth_table> functions;
  functions.reserve(targets.size());
  for (const target_spec& t : targets) {
    functions.push_back(t.function());
  }
  JANUS_CHECK_MSG(result.straightforward.realizes(functions),
                  "straight-forward merge failed verification");

  // Part 2: try common heights from 2 upward; per output find the narrowest
  // realization at that height (seeding from the part-1 solution). Outputs
  // whose Part-1 run was budget-starved are never re-solved here: their
  // block is only ever padded, and a height their block cannot reach without
  // SAT work is infeasible.
  multi_lattice_mapping best = result.straightforward;
  lm::lm_options probe_options = options.lm;
  probe_options.sat_time_limit_s =
      std::min(probe_options.sat_time_limit_s, 30.0);
  // One incremental session pool per output, persistent across the whole
  // height sweep: every (rows, cols) probe of output i reuses the same
  // solvers and UNSAT frontier.
  std::vector<std::unique_ptr<lm::lm_session_pool>> session_pools;
  session_pools.reserve(targets.size());
  for (const target_spec& t : targets) {
    session_pools.push_back(std::make_unique<lm::lm_session_pool>(
        t, options.lm.encode, options.lm.solver));
  }
  const int max_rows = result.straightforward.grid().grid().rows;
  for (int rows = 2; rows < max_rows && !budget.expired(); ++rows) {
    std::vector<lattice_mapping> fitted;
    fitted.reserve(targets.size());
    bool feasible = true;
    int total_cols = static_cast<int>(targets.size()) - 1;
    for (std::size_t i = 0; i < targets.size() && feasible; ++i) {
      const lattice_mapping& part = parts[i];
      probe_options.sessions = session_pools[i].get();
      std::optional<lattice_mapping> found;
      if (result.output_time_limited[i]) {
        if (part.grid().rows <= rows) {
          found = part.padded_to_rows(rows);
        }
      } else if (part.grid().rows <= rows) {
        found = part.padded_to_rows(rows);
        // Try narrowing.
        for (int k = found->grid().cols - 1; k >= 1 && !budget.expired(); --k) {
          const lm::lm_result r = lm::solve_lm(
              targets[i], shared_info.get(dims{rows, k}), probe_options,
              budget);
          if (r.status != lm::lm_status::realizable) {
            break;
          }
          found = r.mapping;
        }
      } else {
        // Shorter than before: widen until it fits.
        const int max_cols = (part.size() * 2) / rows + 2;
        for (int k = std::max(1, part.size() / rows);
             k <= max_cols && !budget.expired(); ++k) {
          const lm::lm_result r = lm::solve_lm(
              targets[i], shared_info.get(dims{rows, k}), probe_options,
              budget);
          if (r.status == lm::lm_status::realizable) {
            found = r.mapping;
            break;
          }
        }
      }
      if (!found.has_value()) {
        feasible = false;
        break;
      }
      total_cols += found->grid().cols;
      fitted.push_back(std::move(*found));
    }
    if (!feasible) {
      continue;
    }
    if (rows * total_cols < best.size()) {
      multi_lattice_mapping merged = multi_lattice_mapping::merge(fitted);
      if (merged.realizes(functions) && merged.size() < best.size()) {
        best = std::move(merged);
      }
    }
  }
  result.improved = std::move(best);
  result.hit_time_limit = result.hit_time_limit || budget.expired();
  result.total_seconds = total_clock.seconds();
  return result;
}

}  // namespace janus::synth
