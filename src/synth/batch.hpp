// Batch synthesis: many targets, one pool — the multi-target workload.
//
// The paper's experiments synthesize 48 independent Table II instances; a
// synthesis service faces the same shape (every output of a PLA, every
// function of a netlist). `synthesize_batch` shards the targets across one
// shared thread pool; each target additionally fans out its own dichotomic
// probes on the *same* pool (the task-group engine is nesting-safe), so
// small batches still saturate the workers.
//
// Determinism: results are reported in input order, and every per-target
// result is bit-identical in bounds and solution size to a jobs=1 run of the
// same target (see tests/test_parallel.cpp), because winner selection at
// every layer is independent of completion order.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "synth/janus.hpp"
#include "synth/portfolio.hpp"

namespace janus::synth {

struct batch_options {
  janus_options base;  ///< per-target options (jobs/exec fields are ignored)

  /// Non-empty: route every target through the backend portfolio (these
  /// names, in priority order) instead of the classic JANUS path — each
  /// target's backends race on the shared pool and `batch_result::portfolio`
  /// carries the per-target tables (`results` stays empty). Empty (the
  /// default) keeps the classic path bit-identical.
  std::vector<std::string> backends;

  /// Pool width shared by target sharding, probe fan-out and portfolio
  /// races.
  int jobs = 1;

  /// Wall-clock budget per target; <= 0 means base.time_limit_s.
  double per_target_time_limit_s = 0.0;

  /// Overall wall-clock budget; <= 0 means unlimited. Targets that start
  /// after it expired report hit_time_limit with their initial bounds; an
  /// expiring budget also tightens the deadline of later-starting targets.
  double total_time_limit_s = 0.0;

  /// Fan out each target's dichotomic probes on the shared pool (on by
  /// default; off restricts parallelism to target-level sharding).
  bool parallel_probes = true;
};

struct batch_result {
  std::vector<janus_result> results;  ///< input order, one per target
  /// Portfolio mode only (`batch_options::backends` non-empty): one racing
  /// table per target, input order. `solved` then counts targets with a
  /// definitive winner and `total_switches` sums winner costs of the
  /// lattice-cost backends only (ESOP terms and chain steps are not
  /// switches).
  std::vector<portfolio_result> portfolio;
  sat::solver_stats solver_totals;    ///< summed over all dichotomic probes
  std::uint64_t total_probes = 0;
  /// Probes answered from the UNSAT frontiers without solving, summed over
  /// all targets.
  std::uint64_t pruned_probes = 0;
  /// Targets answered from the shared NP-canonical solution cache / targets
  /// that consulted it and had to run their own ladder. Both stay 0 when
  /// `base.solutions == nullptr` (no store configured); constant targets
  /// never consult the store and are counted in neither.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  int solved = 0;  ///< targets that produced a verified solution
  int total_switches = 0;  ///< sum of solution sizes over solved targets
  bool hit_time_limit = false;  ///< any target hit a deadline
  double seconds = 0.0;  ///< wall-clock for the whole batch
};

/// Synthesize every target, sharded across `options.jobs` workers.
[[nodiscard]] batch_result synthesize_batch(
    std::span<const lm::target_spec> targets, const batch_options& options);

}  // namespace janus::synth
