// Batch synthesis: many targets, one pool — the multi-target workload.
//
// The paper's experiments synthesize 48 independent Table II instances; a
// synthesis service faces the same shape (every output of a PLA, every
// function of a netlist). `synthesize_batch` shards the targets across one
// shared thread pool; each target additionally fans out its own dichotomic
// probes on the *same* pool (the task-group engine is nesting-safe), so
// small batches still saturate the workers.
//
// A batch shard and a janusd request both run a target through
// `synthesize_target` and count it with `synthesis_counters::add`, so janusd
// answers what a batch answers by construction.
//
// Determinism: results are reported in input order, and every per-target
// result is bit-identical in bounds and solution size to a jobs=1 run of the
// same target (see tests/test_parallel.cpp), because winner selection at
// every layer is independent of completion order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "synth/janus.hpp"
#include "synth/portfolio.hpp"

namespace janus::synth {

/// One target's outcome: the JANUS ladder's result, or the backend race's
/// table when backends were requested.
using target_result = std::variant<janus_result, portfolio_result>;

/// Run one target on `ctx` (the caller's pool, which the probe
/// fan-out or the race nests on, and the caller's cancel token), with
/// `base.time_limit_s` clipped to `dl`: the JANUS ladder when `backends` is
/// empty, else run_portfolio over those backends under `dl`.
[[nodiscard]] target_result synthesize_target(
    const lm::target_spec& target, const janus_options& base,
    const std::vector<std::string>& backends, deadline dl,
    const exec::context& ctx);

/// The work counters a batch and janusd's /stats both report.
struct synthesis_counters {
  /// Summed over every dichotomic probe (JANUS) or raced backend (portfolio).
  sat::solver_stats solver_totals;
  std::uint64_t total_probes = 0;
  /// Probes answered from the UNSAT frontiers without solving.
  std::uint64_t pruned_probes = 0;
  /// JANUS targets answered from the shared NP-canonical solution cache /
  /// that consulted it and had to run their own ladder. Both stay 0 without
  /// a store; constant targets never consult the store and are counted in
  /// neither.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// Count one target; `store_configured`: it ran with `solutions` set.
  void add(const target_result& outcome, bool store_configured);
};

struct batch_options {
  /// Per-target options: `base.time_limit_s` is the per-target budget and
  /// `base.exec.cancel` the caller's cancel token; `base.exec.pool` is
  /// ignored (the batch owns its pool).
  janus_options base;

  /// Non-empty: route every target through the backend portfolio (these
  /// names, in priority order) instead of the classic JANUS path — each
  /// target's backends race on the shared pool and `batch_result::portfolio`
  /// carries the per-target tables (`results` stays empty). Empty (the
  /// default) keeps the classic path bit-identical.
  std::vector<std::string> backends;

  /// Pool width shared by target sharding, probe fan-out and portfolio
  /// races. At jobs <= 1 targets run inline; a race of several backends
  /// then runs on one batch-wide pool of one worker per backend.
  int jobs = 1;

  /// Overall wall-clock budget; <= 0 means unlimited. Targets that start
  /// after it expired report hit_time_limit with their initial bounds; an
  /// expiring budget also tightens the deadline of later-starting targets.
  double total_time_limit_s = 0.0;
};

struct batch_result : synthesis_counters {
  std::vector<janus_result> results;  ///< input order, one per target
  /// Portfolio mode only (`batch_options::backends` non-empty): one racing
  /// table per target, input order. `solved` then counts targets with a
  /// definitive winner and `total_switches` sums winner costs of the
  /// lattice-cost backends only (ESOP terms and chain steps are not
  /// switches).
  std::vector<portfolio_result> portfolio;
  int solved = 0;  ///< targets that produced a verified solution
  int total_switches = 0;  ///< sum of solution sizes over solved targets
  bool hit_time_limit = false;  ///< any target hit a deadline
  double seconds = 0.0;  ///< wall-clock for the whole batch
};

/// Synthesize every target, sharded across `options.jobs` workers.
[[nodiscard]] batch_result synthesize_batch(
    std::span<const lm::target_spec> targets, const batch_options& options);

}  // namespace janus::synth
