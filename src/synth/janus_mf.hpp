// JANUS-MF — multiple functions on a single lattice (Section III-C).
//
// Part 1 ("straight-forward method"): synthesize each output with JANUS and
// merge the per-output lattices side by side, separated by 0-isolation
// columns, padding to the tallest block.
// Part 2: search for a common, smaller row count — for each candidate height,
// re-synthesize every output at that height with the fewest columns, and keep
// the merge with the smallest total switch count.
#pragma once

#include <vector>

#include "synth/janus.hpp"

namespace janus::synth {

struct janus_mf_result {
  lattice::multi_lattice_mapping straightforward;  ///< part 1 merge
  lattice::multi_lattice_mapping improved;         ///< part 2 result
  double straightforward_seconds = 0.0;
  double total_seconds = 0.0;
  /// Any output's Part-1 synthesis was budget-starved (its slot holds the
  /// best lattice that run verified in time, and Part 2 never re-solves it),
  /// or the overall budget expired or the run was cancelled mid-run. The
  /// merged result is still verified.
  bool hit_time_limit = false;
  /// Per-output: true when that output's Part-1 run was budget-starved.
  std::vector<bool> output_time_limited;

  [[nodiscard]] int straightforward_size() const {
    return straightforward.size();
  }
  [[nodiscard]] int improved_size() const { return improved.size(); }
};

/// Synthesize all `targets` (same input count) on one lattice.
[[nodiscard]] janus_mf_result run_janus_mf(
    const std::vector<lm::target_spec>& targets, const janus_options& options);

}  // namespace janus::synth
