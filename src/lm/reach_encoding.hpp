// Alternative LM encoding via unrolled reachability (ablation substrate and
// complete test reference).
//
// Instead of enumerating irredundant paths, this encoding unrolls a BFS
// fixpoint: reach_k[cell][e] ⇔ cell is ON at entry e and reachable from the
// top plate through ON cells within k steps. After K = m·n rounds the
// fixpoint is exact, so ON entries assert some bottom cell is reachable and
// OFF entries assert none is. No path list is needed, at the price of many
// auxiliary variables — the trade the ablation bench quantifies against the
// paper's path encoding.
//
// It shares the mapping/value core (exactly-one + link clauses) with the
// path encoding through lm_emitter, and adds no heuristic rule, so its
// verdicts are the exact answer the path encoding's rules approximate —
// which is why the LM and synthesis tests use it as their reference.
#pragma once

#include "lm/lm_solver.hpp"

namespace janus::lm {

/// Solve the LM problem with the reachability encoding (primal view only):
/// one fresh formula and solver per call. Statuses have the same meaning as
/// solve_lm; the encoding is complete (no heuristic rules), so every
/// `unrealizable` answer is definitive and is reported with
/// `definitely_unrealizable` set.
[[nodiscard]] lm_result solve_lm_reachability(
    const target_spec& target, const lattice::dims& d,
    const lm_options& options, deadline budget = deadline::never());

}  // namespace janus::lm
