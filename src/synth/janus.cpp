#include "synth/janus.hpp"

#include <algorithm>
#include <cstdint>

#include "cache/solution_cache.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace janus::synth {

using lattice::cell_assign;
using lattice::dims;
using lattice::lattice_mapping;
using lattice::multi_lattice_mapping;
using lm::target_spec;

std::vector<dims> lattice_candidates(int max_area) {
  JANUS_CHECK(max_area >= 1);
  std::vector<dims> all;
  for (int m = 1; m <= max_area; ++m) {
    all.push_back(dims{m, max_area / m});
  }
  std::vector<dims> maximal;
  for (const dims& d : all) {
    bool dominated = false;
    for (const dims& other : all) {
      if (other != d && other.rows >= d.rows && other.cols >= d.cols) {
        dominated = true;
        break;
      }
    }
    if (!dominated &&
        std::find(maximal.begin(), maximal.end(), d) == maximal.end()) {
      maximal.push_back(d);
    }
  }
  // Canonical probe order: smallest area first, then lexicographic (rows,
  // cols). The dichotomic step picks the first realizable candidate in this
  // order whether its fan-out runs inline or on a pool.
  std::sort(maximal.begin(), maximal.end(),
            [](const dims& a, const dims& b) {
              if (a.size() != b.size()) {
                return a.size() < b.size();
              }
              return a < b;
            });
  return maximal;
}

std::optional<lattice_mapping> fit_at_height(
    const target_spec& target, const lattice_mapping& part, int rows,
    int first_col, int last_col, lm::lattice_info_cache& cache,
    const lm::lm_options& lm_options, deadline budget, janus_result* record) {
  const auto stopped = [&] {
    return budget.expired() || lm_options.cancel.cancelled();
  };
  const auto solve = [&](int cols) {
    stopwatch clock;
    lm::lm_result r =
        lm::solve_lm(target, cache.get(dims{rows, cols}), lm_options, budget);
    if (record != nullptr) {
      record->probes.push_back({dims{rows, cols}, r.status, clock.seconds()});
      record->sat_totals += r.solver;
    }
    return r;
  };
  if (part.grid().rows > rows) {
    // Taller part: widen until it fits at the reduced height.
    for (int k = first_col; k <= last_col && !stopped(); ++k) {
      lm::lm_result r = solve(k);
      if (r.status == lm::lm_status::realizable) {
        return std::move(r.mapping);
      }
    }
    return std::nullopt;
  }
  // Short enough: pad it, then narrow it while the narrower lattice fits.
  lattice_mapping found = part.padded_to_rows(rows);
  for (int k = part.grid().cols - 1; k >= 1 && !stopped(); --k) {
    lm::lm_result r = solve(k);
    if (r.status != lm::lm_status::realizable) {
      break;
    }
    found = std::move(*r.mapping);
  }
  return found;
}

janus_synthesizer::janus_synthesizer(janus_options options)
    : options_(std::move(options)), cache_(options_.max_paths) {
  options_.lm.cancel = options_.exec.cancel;
}

const bound_solution* janus_synthesizer::bounds_report::best() const {
  const bound_solution* out = nullptr;
  for (const bound_solution& b : methods) {
    if (out == nullptr || b.size() < out->size()) {
      out = &b;
    }
  }
  return out;
}

const bound_solution* janus_synthesizer::bounds_report::by_method(
    const std::string& m) const {
  for (const bound_solution& b : methods) {
    if (b.method == m) {
      return &b;
    }
  }
  return nullptr;
}

janus_synthesizer::bounds_report janus_synthesizer::compute_bounds(
    const target_spec& target, deadline budget) {
  bounds_report report;
  // A constant needs one switch hard-wired to 0 or 1; DP, PS and DPS
  // decline it, and the structural scan answers 1.
  if (target.is_constant()) {
    lattice_mapping m(dims{1, 1}, target.num_vars());
    m.set(0, 0, target.function().is_one() ? cell_assign::one()
                                           : cell_assign::zero());
    report.methods.push_back({"const", std::move(m)});
    report.lower_bound = 1;
    return report;
  }
  const auto consider = [&](std::optional<bound_solution> sol) {
    if (sol.has_value()) {
      JANUS_LOG(info) << target.name() << ": " << sol->method << " bound "
                      << sol->mapping.grid().str();
      report.methods.push_back(std::move(*sol));
    }
  };
  const auto cancelled = [&] { return options_.exec.cancel.cancelled(); };
  consider(build_dp(target));
  consider(build_ps(target));
  consider(build_dps(target));
  const upper_bounds set = options_.bound_set;
  if (set != upper_bounds::oub && !cancelled()) {
    consider(build_ips(target, cache(), options_.lm, budget));
  }
  if (set != upper_bounds::oub && !cancelled()) {
    consider(build_idps(target, budget));
  }
  if (set == upper_bounds::all && !cancelled()) {
    consider(divide_and_synthesize(target, budget, 1));
  }
  const bound_solution* best = report.best();
  const int scan_limit = best != nullptr ? best->size() : 64;
  report.lower_bound = lower_bound_structural(target, cache(), scan_limit);
  return report;
}

janus_synthesizer::probe_outcome janus_synthesizer::probe(
    const target_spec& target, const dims& d, deadline budget,
    const lm::lm_options& lm_options) {
  const auto key = std::make_pair(d.rows, d.cols);
  {
    util::lock_guard lock(memo_mutex_);
    const auto it = probe_memo_.find(key);
    if (it != probe_memo_.end()) {
      return {it->second, 0.0, /*from_cache=*/true};
    }
  }
  stopwatch clock;
  lm::lm_result r = lm::solve_lm(target, cache().get(d), lm_options, budget);
  const double seconds = clock.seconds();
  JANUS_LOG(info) << target.name() << ": probe " << d.str() << " -> "
                  << static_cast<int>(r.status) << " ("
                  << format_fixed(seconds, 2) << "s)";
  {
    util::lock_guard lock(memo_mutex_);
    sat_totals_ += r.solver;
    // Only definitive answers are worth caching: an unknown may resolve with
    // a fresh budget, and a cancelled probe never really ran. (A probe ranked
    // past the winner can still finish definitively before its cancel lands
    // and get cached here — harmless for determinism, because its area is at
    // least the winner's and every later dichotomic step probes strictly
    // smaller areas, so the entry is never consulted again.)
    if (r.status != lm::lm_status::unknown &&
        r.status != lm::lm_status::cancelled) {
      probe_memo_[key] = r;
    }
  }
  return {std::move(r), seconds, /*from_cache=*/false};
}

std::optional<lattice_mapping> janus_synthesizer::probe_step(
    const target_spec& target, int mp, deadline budget,
    lm::lm_session_pool& sessions, std::vector<probe_record>& log) {
  const std::vector<dims> candidates = lattice_candidates(mp);
  const std::size_t n = candidates.size();
  std::vector<probe_outcome> outcomes(n);
  std::vector<std::uint8_t> probed(n, 0);
  lm::lm_options lm_options = options_.lm;
  lm_options.sessions = &sessions;

  // Core-guided pruning: candidates dominated by the session pool's UNSAT
  // frontier are already decided — probe them inline (no SAT work: solve_lm
  // answers from the frontier instantly) instead of spawning tasks.
  // Realizability is monotone in rows and columns, and only rule-free
  // (genuine) UNSATs enter the frontier, so the answer matches what a
  // one-shot probe would return; going through probe() keeps the memo and
  // from_cache dedup semantics in one place, so a dims re-listed by a later
  // step is neither re-logged nor re-counted.
  for (std::size_t i = 0; i < n; ++i) {
    if (sessions.known_unrealizable(candidates[i])) {
      outcomes[i] = probe(target, candidates[i], budget, lm_options);
      probed[i] = 1;
    }
  }

  // A SAT answer at rank i cancels only ranks > i (see exec::race_ranked),
  // so the selection is deterministic. A task whose stop or budget fired
  // before it started stays unprobed: inline, that is the scan that stops at
  // the first realizable candidate.
  const std::size_t win = exec::race_ranked(
      options_.exec, n, /*race=*/true,
      [&](std::size_t i, const exec::cancel_token& stop) {
        if (probed[i] != 0 || stop.cancelled() || budget.expired()) {
          return false;  // pruned above, or cancelled before it started
        }
        lm::lm_options task_options = lm_options;
        task_options.cancel = stop;
        outcomes[i] = probe(target, candidates[i], budget, task_options);
        probed[i] = 1;
        return outcomes[i].result.status == lm::lm_status::realizable;
      });

  // Records appear in canonical order regardless of completion order.
  for (std::size_t i = 0; i < n; ++i) {
    if (probed[i] != 0 && !outcomes[i].from_cache) {
      log.push_back({candidates[i], outcomes[i].result.status,
                     outcomes[i].seconds});
    }
  }
  if (win == n) {
    return std::nullopt;
  }
  JANUS_CHECK(outcomes[win].result.mapping.has_value());
  return std::move(*outcomes[win].result.mapping);  // outcomes dies at return
}

janus_result janus_synthesizer::run(const target_spec& target) {
  janus_result result;
  stopwatch total_clock;
  {
    util::lock_guard lock(memo_mutex_);
    probe_memo_.clear();
    sat_totals_ = {};
  }
  const deadline budget = deadline::in_seconds(options_.time_limit_s);

  // The incremental session pool of this run: persistent per-(target, side)
  // solvers for the dichotomic probes plus the shared UNSAT frontier. Scoped
  // to the run — `target` outlives it, and the next run starts fresh.
  lm::lm_session_pool session_pool(target, options_.lm.encode,
                                   options_.lm.solver);

  // A constant takes compute_bounds' one 1x1 construction, before the
  // solution cache, so the cache's hit and miss counters never see it.
  if (target.is_constant()) {
    bounds_report bounds = compute_bounds(target, budget);
    result.solution = std::move(bounds.methods.front().mapping);
    result.lower_bound = result.old_upper_bound = result.new_upper_bound = 1;
    result.ub_method = bounds.methods.front().method;
    result.seconds = total_clock.seconds();
    return result;
  }

  // NP-canonical cache: an equivalent class solved before (this run, another
  // output/target sharing the store, or a previous process via the
  // persistent layer) skips the ladder entirely. lookup() re-verifies the
  // inverse-transformed mapping against the BFS oracle before returning it.
  // The canonical form is computed once and reused by the store() after a
  // missed ladder.
  std::optional<bf::np_canonical> canon;
  if (options_.solutions != nullptr) {
    canon = options_.solutions->canonicalize(target.function());
    if (std::optional<cache::cached_solution> hit =
            options_.solutions->lookup(*canon, target.function())) {
      JANUS_LOG(info) << target.name() << ": answered from the solution cache ("
                      << hit->mapping.grid().str() << ")";
      result.lower_bound = hit->lower_bound;
      result.old_upper_bound = hit->mapping.size();
      result.new_upper_bound = hit->mapping.size();
      result.ub_method = "cache";
      result.from_cache = true;
      result.solution = std::move(hit->mapping);
      result.seconds = total_clock.seconds();
      return result;
    }
  }

  // Step 1: bounds.
  const bounds_report bounds = compute_bounds(target, budget);
  int oub = 0;
  for (const bound_solution& b : bounds.methods) {
    if (b.method == "DP" || b.method == "PS" || b.method == "DPS") {
      if (oub == 0 || b.size() < oub) {
        oub = b.size();
      }
    }
  }
  // PS realizes every non-constant target whatever the budget.
  JANUS_CHECK_MSG(oub > 0, "no DP, PS or DPS bound for a non-constant target");
  const bound_solution* best_bound = bounds.best();
  result.old_upper_bound = oub;
  result.new_upper_bound = best_bound->size();
  result.ub_method = best_bound->method;
  result.lower_bound = std::min(bounds.lower_bound, best_bound->size());

  lattice_mapping best = best_bound->mapping;

  // Steps 2–6: dichotomic search.
  int lo = result.lower_bound;
  int hi = best.size();
  while (lo < hi) {
    if (budget.expired() || options_.exec.cancel.cancelled()) {
      result.hit_time_limit = true;
      break;
    }
    const int mp = (lo + hi) / 2;
    std::optional<lattice_mapping> winner =
        probe_step(target, mp, budget, session_pool, result.probes);
    if (winner.has_value()) {
      best = std::move(*winner);
      hi = best.size();
      continue;
    }
    if (budget.expired() || options_.exec.cancel.cancelled()) {
      // The step was cut short; "no winner" proves nothing about mp.
      result.hit_time_limit = true;
      break;
    }
    lo = mp + 1;
  }

  JANUS_CHECK_MSG(best.realizes(target.function()),
                  "JANUS produced an unverified solution");
  // Only converged ladders enter the cache: an overall-budget cut leaves
  // lo < hi, so the reported size is provably not the class's answer. A
  // converged ladder *is* stored even when individual SAT calls timed out —
  // timeout-as-UNSAT is the paper's designed approximation and the stored
  // size is exactly what this run reports; see docs/architecture.md for the
  // cross-run implications.
  if (options_.solutions != nullptr && !result.hit_time_limit) {
    options_.solutions->store(*canon, target.function(), best,
                              result.lower_bound);
  }
  result.solution = std::move(best);
  {
    util::lock_guard lock(memo_mutex_);
    result.sat_totals = sat_totals_;
  }
  result.pruned_probes = session_pool.pruned_probes();
  result.seconds = total_clock.seconds();
  return result;
}

// ---------------------------------------------------------------------------
// DS — divide and synthesize
// ---------------------------------------------------------------------------

std::optional<bound_solution> janus_synthesizer::divide_and_synthesize(
    const target_spec& target, deadline budget, int depth) {
  if (depth <= 0 || target.num_products() < 2 || budget.expired()) {
    return std::nullopt;
  }
  // Step 1: partition the products into g and h, balancing product counts
  // and literal totals.
  bf::cover sorted = target.sop();
  sorted.sort_desc_by_literals();
  bf::cover g(target.num_vars());
  bf::cover h(target.num_vars());
  int g_lits = 0;
  int h_lits = 0;
  for (const bf::cube& p : sorted.cubes()) {
    const bool to_g =
        (g_lits < h_lits) ||
        (g_lits == h_lits && g.num_cubes() <= h.num_cubes());
    if (to_g) {
      g.add(p);
      g_lits += p.num_literals();
    } else {
      h.add(p);
      h_lits += p.num_literals();
    }
  }
  if (g.empty() || h.empty()) {
    return std::nullopt;
  }

  // Step 2: synthesize the sub-functions with JANUS itself.
  janus_options child_options = options_;
  child_options.bound_set =
      depth > 1 ? upper_bounds::all : upper_bounds::no_ds;
  // Share the path cache: the parent enumerates the same small grids (IPS,
  // structural LB, the ladder), and paths depend only on dims and max_paths.
  child_options.lattice_info = &cache();
  child_options.time_limit_s =
      std::min(budget.remaining_seconds() * 0.35, options_.time_limit_s);
  const target_spec gt = target_spec::from_cover(
      g, target.name().empty() ? "" : target.name() + "_g");
  const target_spec ht = target_spec::from_cover(
      h, target.name().empty() ? "" : target.name() + "_h");
  janus_synthesizer child(child_options);
  lattice_mapping part_g = *child.run(gt).solution;
  lattice_mapping part_h = *child.run(ht).solution;

  lattice_mapping combined =
      multi_lattice_mapping::merge({part_g, part_h}).grid();
  if (!combined.realizes(target.function())) {
    return std::nullopt;  // composition invariant violated (degenerate case)
  }

  // Step 3: explore alternative realizations with fewer rows: re-fit both
  // parts one row lower, widening a taller part while the composition stays
  // smaller than the current one. The row ladder probes each sub-function
  // on a sequence of related dims — the session sweet spot — so each part
  // gets its own incremental pool.
  lm::lm_options g_options = options_.lm;
  g_options.sat_time_limit_s = std::min(g_options.sat_time_limit_s, 20.0);
  lm::lm_options h_options = g_options;
  lm::lm_session_pool g_sessions(gt, options_.lm.encode, options_.lm.solver);
  lm::lm_session_pool h_sessions(ht, options_.lm.encode, options_.lm.solver);
  g_options.sessions = &g_sessions;
  h_options.sessions = &h_sessions;
  while (combined.grid().rows > 2 && !budget.expired()) {
    const int rows = combined.grid().rows - 1;
    const int last_col = (combined.size() - 1) / rows;
    std::optional<lattice_mapping> new_g =
        fit_at_height(gt, part_g, rows, part_g.grid().cols, last_col, cache(),
                      g_options, budget);
    if (!new_g.has_value()) {
      break;
    }
    std::optional<lattice_mapping> new_h =
        fit_at_height(ht, part_h, rows, part_h.grid().cols, last_col, cache(),
                      h_options, budget);
    if (!new_h.has_value()) {
      break;
    }
    lattice_mapping candidate =
        multi_lattice_mapping::merge({*new_g, *new_h}).grid();
    if (candidate.size() >= combined.size() ||
        !candidate.realizes(target.function())) {
      break;
    }
    part_g = std::move(*new_g);
    part_h = std::move(*new_h);
    combined = std::move(candidate);
  }
  return bound_solution{"DS", std::move(combined)};
}

}  // namespace janus::synth
