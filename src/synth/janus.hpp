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
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace janus::cache {
class solution_cache;
}  // namespace janus::cache

namespace janus::synth {

/// The upper-bound sets in use. DP, PS and DPS run in every set: they are
/// SAT-free, ignore the budget, and PS realizes every non-constant target, so
/// a non-constant target always has a verified bound.
enum class upper_bounds {
  oub,    ///< DP, PS, DPS only (Table II's "oub"): exact6, approx6, heur11
  no_ds,  ///< plus IPS and IDPS: the pc9 sub-runs and the DS children
  all,    ///< plus DS: JANUS
};

struct janus_options {
  lm::lm_options lm;                  ///< per-LM-call options (SAT limit etc.;
                                      ///< the engine sets `cancel`)
  double time_limit_s = 6.0 * 3600.0; ///< overall budget (paper: 6h CPU)
  std::size_t max_paths = 200'000;    ///< per-lattice path cap

  /// The caller's pool for the dichotomic probe fan-out (null = inline) and
  /// external cancellation. DS children, JANUS-MF outputs and pc9 sub-runs
  /// inherit it; the synthesizer never creates a pool of its own.
  exec::context exec;

  /// Upper-bound constructions compute_bounds runs (see upper_bounds).
  upper_bounds bound_set = upper_bounds::all;

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
  /// The probes of this result's own ladder: run()'s dichotomic steps, or
  /// heur11's candidate search. The DS row ladder and the JANUS-MF height
  /// sweep fit through fit_at_height without a record, so run() reports
  /// exactly the probes a replay of its ladder re-solves.
  std::vector<probe_record> probes;
  /// SAT counters summed over the probes above (same scope).
  sat::solver_stats sat_totals;
  /// Dichotomic-ladder probes answered from the UNSAT frontier without
  /// solving. Counts the run-level pool only — like
  /// `sat_totals`, this covers the ladder, not the DS / MF sub-ladders
  /// (which use their own per-subtarget pools).
  std::uint64_t pruned_probes = 0;
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
/// which the dichotomic step uses, inline or on a pool, to select
/// the winning candidate, so results are independent of completion order.
[[nodiscard]] std::vector<lattice::dims> lattice_candidates(int max_area);

/// Fit `part`'s function at height `rows` (the DS row ladder, the JANUS-MF
/// height sweep and heur11's candidate search). A part at most `rows` tall
/// is padded to `rows`, then narrowed from its column count − 1 downward
/// while the narrower lattice is realizable. A taller part takes the first
/// realizable width k in [first_col, last_col], else nullopt. No probe
/// starts once `budget` expires or `lm_options.cancel` fires. With `record`
/// set, every probe is appended to its `probes` and `sat_totals`.
[[nodiscard]] std::optional<lattice::lattice_mapping> fit_at_height(
    const lm::target_spec& target, const lattice::lattice_mapping& part,
    int rows, int first_col, int last_col, lm::lattice_info_cache& cache,
    const lm::lm_options& lm_options, deadline budget,
    janus_result* record = nullptr);

class janus_synthesizer {
 public:
  /// `options.lm.cancel` is replaced by `options.exec.cancel`, so every LM
  /// call the engine makes stops with its run.
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

  /// The DS (divide and synthesize) construction — Section III-B. `depth`
  /// 0 disables it; compute_bounds passes 1, so the two sub-function runs go
  /// without DS; any larger depth lets them apply it once more.
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

  /// One dichotomic step: race every lattice_candidates(mp) entry through
  /// the run's `sessions` on `exec` (exec::race_ranked) and return the
  /// realization of the first candidate (in canonical order) that is
  /// realizable. A cancelled candidate that has not started is never
  /// probed. Candidates dominated by the UNSAT frontier are answered
  /// unrealizable up front (logged with zero solve time) instead of probed.
  std::optional<lattice::lattice_mapping> probe_step(
      const lm::target_spec& target, int mp, deadline budget,
      lm::lm_session_pool& sessions, std::vector<probe_record>& log);

  janus_options options_;
  lm::lattice_info_cache cache_;
  util::mutex memo_mutex_;
  std::map<std::pair<int, int>, lm::lm_result> probe_memo_
      JANUS_GUARDED_BY(memo_mutex_);
  sat::solver_stats sat_totals_ JANUS_GUARDED_BY(memo_mutex_);
};

}  // namespace janus::synth
