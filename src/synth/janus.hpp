// JANUS — the paper's approximate lattice-synthesis algorithm (Section III).
//
//   1. Compute the lower bound (structural scan) and the initial upper bound
//      (best of DP, PS, DPS, IPS, IDPS and DS — each a verified realization).
//   2. Dichotomic search between them: probe the middle size mp, generate the
//      maximal dimension pairs with area ≤ mp, and solve one LM problem per
//      candidate. A SAT answer tightens the upper bound to the found size;
//      all-UNSAT (or timeout, treated as UNSAT — the approximation) raises
//      the lower bound to mp + 1.
//
// The same engine, reconfigured, provides the Table II baselines
// (see baselines.hpp) and the DS / JANUS-MF building blocks.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "lm/lm_solver.hpp"
#include "synth/bounds.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace janus::cache {
class solution_cache;
}  // namespace janus::cache

namespace janus::synth {

struct janus_options {
  lm::lm_options lm;                  ///< per-LM-call options (SAT limit etc.)
  double time_limit_s = 6.0 * 3600.0; ///< overall budget (paper: 6h CPU)
  std::size_t max_paths = 200'000;    ///< per-lattice path cap

  /// Worker threads for the dichotomic probe fan-out. 1 (the default)
  /// keeps the fully sequential pipeline. When
  /// `exec.pool` is null and jobs > 1, run() creates its own pool; batch
  /// synthesis instead shares one pool across targets via `exec`.
  int jobs = 1;
  exec::context exec;  ///< shared pool + external cancellation (optional)

  // Upper-bound methods in play. JANUS uses all six; the exact/approx [6]
  // baselines use only the first three ("oub" in Table II).
  bool use_dp = true;
  bool use_ps = true;
  bool use_dps = true;
  bool use_ips = true;
  bool use_idps = true;
  bool use_ds = true;
  int ds_depth = 1;  ///< DS recursion depth on sub-functions

  /// Structural-scan lower bound (Section III-B); otherwise lb = 1.
  bool use_structural_lb = true;

  /// Optional shared lattice-info (path enumeration) cache. When set, this
  /// synthesizer probes through it instead of its own private cache, so
  /// several engines over one workload (JANUS-MF's per-output runs, DS
  /// children) enumerate each grid's paths once. Thread-safe; the pointer
  /// must outlive the synthesizer. nullptr = private cache.
  lm::lattice_info_cache* lattice_info = nullptr;

  /// NP-canonical cross-target solution cache (see
  /// src/cache/solution_cache.hpp). When set, run() answers NP-equivalent
  /// targets from the store — the hit is inverse-transformed and re-verified
  /// against the BFS oracle — and records every completed ladder back into
  /// it. Shared (thread-safely) by all outputs of a JANUS-MF run, all
  /// targets of a batch, and — via the persistent layer — across processes.
  /// nullptr (the default) disables reuse entirely.
  cache::solution_cache* solutions = nullptr;
};

/// Thrown by janus_synthesizer::run when no upper-bound construction
/// produced a verified lattice (every method disabled, or a degenerate
/// target under an exhausted budget). Distinct from plain check_error so
/// multi-output drivers can degrade gracefully on exactly this condition
/// without swallowing genuine invariant failures (unverified solutions,
/// cache-oracle rejections).
class no_upper_bound_error : public check_error {
 public:
  using check_error::check_error;
};

/// One dichotomic-search probe, for reporting.
struct probe_record {
  lattice::dims d;
  lm::lm_status status;
  double seconds = 0.0;
};

struct janus_result {
  std::optional<lattice::lattice_mapping> solution;  ///< verified
  int lower_bound = 0;
  int old_upper_bound = 0;  ///< oub: best of DP/PS/DPS
  int new_upper_bound = 0;  ///< nub: best of all six methods
  std::string ub_method;    ///< method that produced nub
  double seconds = 0.0;
  bool hit_time_limit = false;
  std::vector<probe_record> probes;
  /// SAT counters summed over every dichotomic probe.
  sat::solver_stats sat_totals;
  /// Dichotomic-ladder probes answered from the UNSAT frontier without
  /// solving. Counts the run-level pool only — like
  /// `sat_totals`, this covers the ladder, not the DS / MF sub-ladders
  /// (which use their own per-subtarget pools).
  std::uint64_t pruned_probes = 0;
  /// Incremental sessions created by the ladder's pool.
  std::uint64_t sessions_created = 0;
  /// Answered from the NP-canonical solution cache: no bounds, no ladder;
  /// `solution` is the inverse-transformed, oracle-re-verified cached
  /// mapping and `ub_method` reads "cache".
  bool from_cache = false;

  [[nodiscard]] int solution_size() const {
    return solution ? solution->size() : 0;
  }
  [[nodiscard]] std::string solution_dims() const {
    return solution ? solution->grid().str() : "-";
  }
};

/// Maximal dimension pairs with area ≤ s (pairs dominated by another pair in
/// both coordinates are dropped — realizability is monotone in rows and
/// columns, which tests/lattice property tests verify). Returned in the
/// canonical probe order — area ascending, then lexicographic (rows, cols) —
/// which both the sequential and the parallel dichotomic step use to select
/// the winning candidate, so results are independent of completion order.
[[nodiscard]] std::vector<lattice::dims> lattice_candidates(int max_area);

class janus_synthesizer {
 public:
  explicit janus_synthesizer(janus_options options = {});

  /// Run the full pipeline on one target.
  [[nodiscard]] janus_result run(const lm::target_spec& target);

  /// Bounds only (used by benches and by Fig. 4's example).
  struct bounds_report {
    int lower_bound = 0;
    std::vector<bound_solution> methods;  ///< every successful construction
    [[nodiscard]] const bound_solution* best() const;
    [[nodiscard]] const bound_solution* by_method(const std::string& m) const;
  };
  [[nodiscard]] bounds_report compute_bounds(const lm::target_spec& target,
                                             deadline budget);

  /// The DS (divide and synthesize) construction — Section III-B.
  [[nodiscard]] std::optional<bound_solution> divide_and_synthesize(
      const lm::target_spec& target, deadline budget, int depth);

  [[nodiscard]] const janus_options& options() const { return options_; }
  /// The lattice-info cache in use: the shared one from
  /// `janus_options::lattice_info` when set, else this engine's own.
  [[nodiscard]] lm::lattice_info_cache& cache() {
    return options_.lattice_info != nullptr ? *options_.lattice_info : cache_;
  }

 private:
  struct probe_outcome {
    lm::lm_result result;
    double seconds = 0.0;
    bool from_cache = false;
  };

  /// Probe one dimension pair, memoized across the binary search.
  /// Thread-safe: called concurrently by the probe fan-out.
  probe_outcome probe(const lm::target_spec& target, const lattice::dims& d,
                      deadline budget, const lm::lm_options& lm_options);

  /// One dichotomic step: probe every lattice_candidates(mp) entry through
  /// the run's `sessions` — concurrently when `pool` is non-null — and
  /// return the realization of the first candidate (in canonical order)
  /// that is realizable. A SAT
  /// answer cancels every candidate ranked after it; lower-ranked probes
  /// always finish, keeping the selected winner deterministic. Candidates
  /// dominated by the UNSAT frontier are answered unrealizable up front
  /// (logged with zero solve time) instead of probed.
  std::optional<lattice::lattice_mapping> probe_step(
      const lm::target_spec& target, int mp, deadline budget,
      exec::thread_pool* pool, lm::lm_session_pool& sessions,
      std::vector<probe_record>& log);

  janus_options options_;
  lm::lattice_info_cache cache_;
  util::mutex memo_mutex_;
  std::map<std::pair<int, int>, lm::lm_result> probe_memo_
      JANUS_GUARDED_BY(memo_mutex_);
  sat::solver_stats sat_totals_ JANUS_GUARDED_BY(memo_mutex_);
};

}  // namespace janus::synth
