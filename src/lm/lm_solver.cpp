#include "lm/lm_solver.hpp"

#include "lm/structural.hpp"
#include "util/log.hpp"

namespace janus::lm {

namespace {

/// Encode and solve one side under `options.cancel`, which aborts the solve
/// mid-search, filling everything but the status into `result` and
/// returning the verdict. Session mode leases a persistent solver; scratch
/// mode builds fresh.
sat::solve_result solve_side(lm_result& result, const target_spec& target,
                             const lattice_info& info, bool dual_side,
                             const lm_options& options, deadline budget) {
  result.used_dual_problem = dual_side;
  if (options.sessions != nullptr) {
    lm_session_pool::lease session = options.sessions->acquire(dual_side);
    lm_session::probe_result pr =
        session->probe(info, budget, options.sat_time_limit_s,
                       options.conflict_budget, options.cancel);
    result.definitely_unrealizable = pr.rule_free_unsat;
    result.mapping = std::move(pr.mapping);
    result.encoding = pr.encoding;
    result.solver = pr.solver_delta;
    return pr.verdict;
  }

  const lm_encoder encoder(target, info, dual_side, options.encode);
  result.encoding = encoder.stats();

  JANUS_LOG(debug) << "LM " << info.d.str() << (dual_side ? " (dual)" : "")
                   << ": " << encoder.stats().num_vars << " vars, "
                   << encoder.stats().num_clauses << " clauses";

  sat::solver s(options.solver);
  sat::solve_result verdict = sat::solve_result::unsat;
  if (s.add_cnf(encoder.formula())) {
    s.set_deadline(budget.tightened(options.sat_time_limit_s));
    if (options.conflict_budget >= 0) {
      s.set_conflict_budget(options.conflict_budget);
    }
    s.set_stop_flag(options.cancel.flag());
    verdict = s.solve();
    if (verdict == sat::solve_result::sat) {
      result.mapping = encoder.decode(s);
    }
  }
  result.solver = s.stats();
  return verdict;
}

}  // namespace

lm_result solve_lm(const target_spec& target, const lattice_info& info,
                   const lm_options& options, deadline budget) {
  lm_result result;
  if (options.cancel.cancelled()) {
    result.status = lm_status::cancelled;
    return result;
  }
  if (info.oversized) {
    result.status = lm_status::skipped;
    return result;
  }
  // Frontier short-circuit: a dims dominated by a proven-unrealizable one
  // cannot be realizable either, so no encoding or solving is needed. Only
  // genuine (rule-free) unrealizability enters the frontier, so this answers
  // exactly what a scratch solve would have answered.
  if (options.sessions != nullptr &&
      options.sessions->known_unrealizable(info.d)) {
    options.sessions->count_pruned_probe();
    result.status = lm_status::unrealizable;
    result.definitely_unrealizable = true;
    return result;
  }
  if (!structural_check(target, info)) {
    // The structural matching is a sound impossibility proof (Section
    // III-A), independent of any heuristic rule — frontier-worthy.
    result.status = lm_status::unrealizable;
    result.definitely_unrealizable = true;
    if (options.sessions != nullptr) {
      options.sessions->note_unrealizable(info.d);
    }
    return result;
  }

  const std::uint64_t primal_estimate =
      estimate_encoding_clauses(target, info, /*dual_side=*/false,
                                options.encode);
  const std::uint64_t dual_estimate =
      estimate_encoding_clauses(target, info, /*dual_side=*/true,
                                options.encode);
  const bool primal_feasible = primal_estimate <= options.max_encoding_clauses;
  const bool dual_feasible = dual_estimate <= options.max_encoding_clauses;
  if (!primal_feasible && !dual_feasible) {
    result.status = lm_status::skipped;
    return result;
  }
  if (options.cancel.cancelled() || budget.expired()) {
    result.status = options.cancel.cancelled() ? lm_status::cancelled
                                               : lm_status::unknown;
    return result;
  }

  // Pick the side with the smaller estimated clause count and construct
  // only that encoder — the other is never built.
  const bool use_dual =
      dual_feasible && (!primal_feasible || dual_estimate < primal_estimate);
  switch (solve_side(result, target, info, use_dual, options, budget)) {
    case sat::solve_result::unsat:
      result.status = lm_status::unrealizable;
      break;
    case sat::solve_result::unknown:
      result.status = options.cancel.cancelled() ? lm_status::cancelled
                                                 : lm_status::unknown;
      break;
    case sat::solve_result::sat:
      JANUS_CHECK(result.mapping.has_value());
      // Every model is re-checked against the BFS oracle (cheap).
      JANUS_CHECK_MSG(result.mapping->realizes(target.function()),
                      "SAT model fails ground-truth verification");
      result.status = lm_status::realizable;
      break;
  }
  // Either side proving genuine unrealizability (rule-free UNSAT core)
  // extends the frontier: both sides decide the same question, so a hard
  // UNSAT from the dual view prunes future primal probes just the same.
  if (result.definitely_unrealizable && options.sessions != nullptr) {
    options.sessions->note_unrealizable(info.d);
  }
  return result;
}

}  // namespace janus::lm
