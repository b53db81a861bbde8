#include "synth/janus.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "cache/solution_cache.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace janus::synth {

using lattice::cell_assign;
using lattice::dims;
using lattice::lattice_mapping;
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
  // order whether it probes sequentially or fans out on a pool.
  std::sort(maximal.begin(), maximal.end(),
            [](const dims& a, const dims& b) {
              if (a.size() != b.size()) {
                return a.size() < b.size();
              }
              return a < b;
            });
  return maximal;
}

janus_synthesizer::janus_synthesizer(janus_options options)
    : options_(options), cache_(options.max_paths) {}

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
  const auto consider = [&](std::optional<bound_solution> sol) {
    if (sol.has_value()) {
      JANUS_LOG(info) << target.name() << ": " << sol->method << " bound "
                      << sol->mapping.grid().str();
      report.methods.push_back(std::move(*sol));
    }
  };
  // External cancellation must reach the constructions' embedded LM solves
  // too, or a Ctrl-C during the bounds phase waits out their SAT budgets.
  lm::lm_options bound_lm = options_.lm;
  bound_lm.cancel = options_.exec.cancel;
  const auto cancelled = [&] { return options_.exec.cancel.cancelled(); };
  if (options_.use_dp) {
    consider(build_dp(target));
  }
  if (options_.use_ps) {
    consider(build_ps(target));
  }
  if (options_.use_dps) {
    consider(build_dps(target));
  }
  if (options_.use_ips && !cancelled()) {
    consider(build_ips(target, cache(), bound_lm, budget));
  }
  if (options_.use_idps && !cancelled()) {
    consider(build_idps(target, budget));
  }
  if (options_.use_ds && !cancelled()) {
    consider(divide_and_synthesize(target, budget, options_.ds_depth));
  }
  const bound_solution* best = report.best();
  const int scan_limit = best != nullptr ? best->size() : 64;
  report.lower_bound =
      options_.use_structural_lb
          ? lower_bound_structural(target, cache(), scan_limit)
          : 1;
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
    exec::thread_pool* pool, lm::lm_session_pool& sessions,
    std::vector<probe_record>& log) {
  const std::vector<dims> candidates = lattice_candidates(mp);
  const std::size_t n = candidates.size();
  std::vector<probe_outcome> outcomes(n);
  std::vector<std::uint8_t> probed(n, 0);
  lm::lm_options lm_options = options_.lm;
  lm_options.cancel = options_.exec.cancel;  // aborts in-flight solves
  lm_options.sessions = &sessions;

  // Core-guided pruning: candidates dominated by the session pool's UNSAT
  // frontier are already decided — probe them inline (no SAT work: solve_lm
  // answers from the frontier instantly) instead of spawning tasks.
  // Realizability is monotone in rows and columns, and only rule-free
  // (genuine) UNSATs enter the frontier, so the answer matches what a
  // one-shot probe would return; going through probe() keeps the memo and
  // from_cache dedup semantics in one place, so a dims re-listed by a later
  // step is neither re-logged nor re-counted.
  std::vector<std::uint8_t> pruned(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (sessions.known_unrealizable(candidates[i])) {
      outcomes[i] = probe(target, candidates[i], budget, lm_options);
      probed[i] = 1;
      pruned[i] = 1;
    }
  }

  if (pool == nullptr) {
    // Sequential jobs=1 fallback: canonical order, stop at the first
    // realizable candidate — by construction the same winner the parallel
    // branch selects.
    for (std::size_t i = 0; i < n; ++i) {
      if (pruned[i] != 0) {
        continue;
      }
      if (budget.expired() || options_.exec.cancel.cancelled()) {
        break;
      }
      outcomes[i] = probe(target, candidates[i], budget, lm_options);
      probed[i] = 1;
      if (outcomes[i].result.status == lm::lm_status::realizable) {
        break;
      }
    }
  } else if (!budget.expired() && !options_.exec.cancel.cancelled()) {
    // Fan out every candidate; a SAT answer at rank i cancels only ranks
    // > i (they cannot win selection), so every rank below the eventual
    // winner always completes and the selection is deterministic.
    std::vector<exec::cancel_source> stops;
    stops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      stops.emplace_back(options_.exec.cancel);
    }
    util::mutex step_mutex;
    std::size_t best_rank = n;
    exec::task_group group(pool);
    for (std::size_t i = 0; i < n; ++i) {
      if (pruned[i] != 0) {
        continue;
      }
      group.run([&, i] {
        lm::lm_options task_options = lm_options;
        task_options.cancel = stops[i].token();
        outcomes[i] = probe(target, candidates[i], budget, task_options);
        probed[i] = 1;
        if (outcomes[i].result.status == lm::lm_status::realizable) {
          util::lock_guard lock(step_mutex);
          if (i < best_rank) {
            best_rank = i;
            for (std::size_t j = i + 1; j < n; ++j) {
              stops[j].request_cancel();
            }
          }
        }
      });
    }
    group.wait();
  }

  // Records appear in canonical order regardless of completion order.
  std::optional<lattice_mapping> winner;
  for (std::size_t i = 0; i < n; ++i) {
    if (probed[i] == 0) {
      continue;
    }
    probe_outcome& o = outcomes[i];
    if (!o.from_cache) {
      log.push_back({candidates[i], o.result.status, o.seconds});
    }
    if (!winner.has_value() &&
        o.result.status == lm::lm_status::realizable) {
      JANUS_CHECK(o.result.mapping.has_value());
      winner = std::move(*o.result.mapping);  // outcomes dies at return
    }
  }
  return winner;
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

  // Constant functions need a single switch hard-wired to 0 or 1.
  if (target.is_constant()) {
    lattice_mapping m(dims{1, 1}, target.num_vars());
    m.set(0, 0, target.function().is_one() ? cell_assign::one()
                                           : cell_assign::zero());
    result.solution = std::move(m);
    result.lower_bound = 1;
    result.old_upper_bound = 1;
    result.new_upper_bound = 1;
    result.ub_method = "const";
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

  // The probe fan-out pool: shared when the caller provided one (batch
  // synthesis), created here for a standalone jobs=N run, absent for jobs=1.
  std::unique_ptr<exec::thread_pool> owned_pool;
  exec::thread_pool* pool = options_.exec.pool;
  if (pool == nullptr && options_.jobs > 1) {
    owned_pool =
        std::make_unique<exec::thread_pool>(static_cast<std::size_t>(options_.jobs));
    pool = owned_pool.get();
  }

  // Step 1: bounds.
  const bounds_report bounds = compute_bounds(target, budget);
  const bound_solution* best_bound = bounds.best();
  if (best_bound == nullptr) {
    throw no_upper_bound_error("no upper-bound construction succeeded for " +
                               (target.name().empty() ? "target"
                                                      : target.name()));
  }
  int oub = 0;
  for (const bound_solution& b : bounds.methods) {
    if (b.method == "DP" || b.method == "PS" || b.method == "DPS") {
      if (oub == 0 || b.size() < oub) {
        oub = b.size();
      }
    }
  }
  result.old_upper_bound = oub == 0 ? best_bound->size() : oub;
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
        probe_step(target, mp, budget, pool, session_pool, result.probes);
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
  result.sessions_created = session_pool.sessions_created();
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
  child_options.ds_depth = depth - 1;
  child_options.use_ds = depth - 1 > 0;
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
  const janus_result gr = child.run(gt);
  const janus_result hr = child.run(ht);
  if (!gr.solution.has_value() || !hr.solution.has_value()) {
    return std::nullopt;
  }
  lattice_mapping part_g = *gr.solution;
  lattice_mapping part_h = *hr.solution;

  lattice_mapping combined =
      concat_with_column(part_g, part_h, cell_assign::zero());
  if (!combined.realizes(target.function())) {
    return std::nullopt;  // composition invariant violated (degenerate case)
  }

  // Step 3: explore alternative realizations with fewer rows. The row
  // ladder probes each sub-function on a sequence of related dims — the
  // session sweet spot — so each part gets its own incremental pool.
  lm::lm_options probe_options = options_.lm;
  probe_options.sat_time_limit_s =
      std::min(probe_options.sat_time_limit_s, 20.0);
  probe_options.cancel = options_.exec.cancel;  // Ctrl-C reaches the ladder
  lm::lm_session_pool g_sessions(gt, options_.lm.encode, options_.lm.solver);
  lm::lm_session_pool h_sessions(ht, options_.lm.encode, options_.lm.solver);
  int bc = combined.size();
  int br = combined.grid().rows;
  while (br > 2 && !budget.expired()) {
    const int target_rows = br - 1;
    bool improved = true;
    std::optional<lattice_mapping> new_g;
    std::optional<lattice_mapping> new_h;
    for (lattice_mapping* part : {&part_g, &part_h}) {
      const target_spec& spec = (part == &part_g) ? gt : ht;
      probe_options.sessions =
          (part == &part_g) ? &g_sessions : &h_sessions;
      std::optional<lattice_mapping> found;
      if (part->grid().rows > target_rows) {
        // Taller part: widen until it fits at the reduced height.
        for (int k = part->grid().cols;
             target_rows * k < bc && !budget.expired(); ++k) {
          const lm::lm_result r = lm::solve_lm(
              spec, cache().get(dims{target_rows, k}), probe_options, budget);
          if (r.status == lm::lm_status::realizable) {
            found = r.mapping;
            break;
          }
        }
      } else {
        // Already-short part: keep it, then try to narrow it.
        found = part->padded_to_rows(target_rows);
        for (int k = part->grid().cols - 1; k >= 1 && !budget.expired(); --k) {
          const lm::lm_result r = lm::solve_lm(
              spec, cache().get(dims{target_rows, k}), probe_options, budget);
          if (r.status != lm::lm_status::realizable) {
            break;
          }
          found = r.mapping;
        }
      }
      if (!found.has_value()) {
        improved = false;
        break;
      }
      ((part == &part_g) ? new_g : new_h) = std::move(found);
    }
    if (!improved) {
      break;
    }
    lattice_mapping candidate =
        concat_with_column(*new_g, *new_h, cell_assign::zero());
    if (candidate.size() >= bc ||
        !candidate.realizes(target.function())) {
      break;
    }
    part_g = std::move(*new_g);
    part_h = std::move(*new_h);
    combined = std::move(candidate);
    bc = combined.size();
    br = combined.grid().rows;
  }

  if (!combined.realizes(target.function())) {
    return std::nullopt;
  }
  return bound_solution{"DS", std::move(combined)};
}

}  // namespace janus::synth
