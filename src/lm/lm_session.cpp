#include "lm/lm_session.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace janus::lm {

lm_session::lm_session(const target_spec& target, bool dual_side,
                       lm_encode_options options,
                       sat::solver_options solver_options)
    : target_(target),
      dual_side_(dual_side),
      options_(options),
      solver_(solver_options) {
  tl_ = build_target_literals(target_, dual_side_, options_);
  layout_.entries = support_entries(
      dual_side_ ? target_.dual_function() : target_.function(), tl_);
  layout_.val_stride = 1;  // per-slot value blocks, entry-consecutive
}

lm_session::probe_result lm_session::probe(const lattice_info& info,
                                           deadline budget,
                                           double sat_time_limit_s,
                                           std::int64_t conflict_budget,
                                           const exec::cancel_token& stop) {
  JANUS_CHECK_MSG(!info.oversized, "cannot encode an oversized lattice");
  probe_result out;

  const auto key = std::make_pair(info.d.rows, info.d.cols);
  const auto found = groups_.find(key);
  out.reused_group = found != groups_.end();
  dims_group group;
  if (out.reused_group) {
    group = found->second;
  } else {
    // Delta formula: numbering continues above the live solver so clauses
    // may mix existing core variables with fresh slot/group variables.
    sat::cnf delta;
    delta.ensure_vars(solver_.num_vars());
    lm_emitter emitter(target_, &info, dual_side_, options_, tl_, layout_,
                       delta);

    // Grow the shared core to the slot count this dims needs.
    const int cells = info.d.size();
    const int old_slots = layout_.num_cells();
    for (int slot = old_slots; slot < cells; ++slot) {
      layout_.map_base.push_back(delta.new_vars(static_cast<int>(tl_.size())));
      layout_.val_base.push_back(
          delta.new_vars(static_cast<int>(layout_.entries.size())));
      emitter.emit_exactly_one(slot);
      for (std::size_t i = 0; i < layout_.entries.size(); ++i) {
        emitter.emit_links(slot, i);
      }
    }

    // The dims group: path constraints and rule clauses, each family behind
    // its own activation literal so UNSAT cores can tell them apart.
    group.structure = sat::lit::make(delta.new_var());
    group.rules = sat::lit::make(delta.new_var());
    emitter.set_activation(group.structure);
    for (std::size_t i = 0; i < layout_.entries.size(); ++i) {
      emitter.emit_entry(i);
    }
    emitter.set_activation(group.rules);
    emitter.emit_rules();

    out.encoding = emitter.stats();
    out.encoding.num_vars =
        static_cast<std::uint64_t>(delta.num_vars() - solver_.num_vars());
    out.encoding.num_clauses = delta.num_clauses();
    if (!solver_.add_cnf(delta)) {
      // Cannot happen for this encoding (the core alone is satisfiable and
      // every group clause is guarded), but keep the contract total.
      out.verdict = sat::solve_result::unsat;
      out.rule_free_unsat = true;
      return out;
    }
    groups_.emplace(key, group);

    JANUS_LOG(debug) << "LM session " << info.d.str()
                     << (dual_side_ ? " (dual)" : "") << ": +"
                     << out.encoding.num_vars << " vars, +"
                     << out.encoding.num_clauses << " clauses ("
                     << groups_.size() << " groups, " << layout_.num_cells()
                     << " slots)";
  }

  // Activate this group, deactivate every other undecided one (decided
  // groups are retired below and need no assumption). Deactivation satisfies
  // the other groups' clauses through their guards up front instead of
  // leaving the solver to branch on them.
  std::vector<sat::lit> assumptions;
  assumptions.reserve(2 * groups_.size());
  assumptions.push_back(group.structure);
  assumptions.push_back(group.rules);
  for (const auto& [other_key, other] : groups_) {
    if (other_key != key) {
      assumptions.push_back(~other.structure);
      assumptions.push_back(~other.rules);
    }
  }

  // Branching activities tuned on a different geometry mislead this probe's
  // search (the regression showed up as session-mode conflict counts well
  // above scratch); reset them when the dims changes, keeping the learned
  // clauses, which transfer soundly. After a *long* probe, keep them: a big
  // search leaves a learned-clause DB over the shared slot variables whose
  // usefulness the activity profile indexes, and wiping it decouples the
  // branching heuristic from those clauses (measured as a conflict-count
  // regression on the hard bench targets). The threshold is empirical.
  constexpr std::uint64_t kKeepActivitiesAfterConflicts = 1000;
  if (last_probe_key_.first >= 0 && last_probe_key_ != key &&
      last_probe_conflicts_ < kKeepActivitiesAfterConflicts) {
    solver_.decay_heuristics(/*rephase=*/false);
  }
  last_probe_key_ = key;

  // Per-call budgets and stop flag; the flag is detached again afterwards
  // because the token may die with the call.
  solver_.set_deadline(budget.tightened(sat_time_limit_s));
  solver_.set_conflict_budget(conflict_budget);
  solver_.set_stop_flag(stop.flag());
  const sat::solver_stats before = solver_.stats();
  out.verdict = solver_.solve(assumptions);
  solver_.set_stop_flag(nullptr);
  out.solver_delta = solver_.stats() - before;
  last_probe_conflicts_ = out.solver_delta.conflicts;

  if (out.verdict == sat::solve_result::sat) {
    out.mapping = decode_mapping(solver_, layout_, tl_, info.d,
                                 target_.num_vars(), dual_side_);
  } else if (out.verdict == sat::solve_result::unsat) {
    // The core holds negations of the assumptions the refutation used; if
    // ~rules is absent, the rule-free encoding alone is contradictory.
    const auto& core = solver_.conflict_core();
    out.rule_free_unsat =
        std::find(core.begin(), core.end(), ~group.rules) == core.end();
  }
  if (out.verdict != sat::solve_result::unknown) {
    // Decided: the probe memo never asks about this dims again, so retire
    // the group. The units satisfy its clauses and every learnt clause
    // derived through them (each carries the negated guard), and the next
    // level-0 sweep deletes them all. An unknown verdict keeps the group so
    // a re-probe resumes where this one stopped.
    solver_.add_clause({~group.structure});
    solver_.add_clause({~group.rules});
    groups_.erase(key);
  }
  return out;
}

// --------------------------------------------------------------------------
// lm_session_pool
// --------------------------------------------------------------------------

lm_session_pool::lease lm_session_pool::acquire(bool dual_side) {
  util::unique_lock lock(mutex_);
  auto& idle = idle_[dual_side ? 1 : 0];
  if (!idle.empty()) {
    std::unique_ptr<lm_session> s = std::move(idle.back());
    idle.pop_back();
    return lease(this, std::move(s));
  }
  ++created_;
  lock.unlock();  // session construction (TL build) needs no pool state
  return lease(this, std::make_unique<lm_session>(target_, dual_side, options_,
                                                  solver_options_));
}

void lm_session_pool::release(std::unique_ptr<lm_session> session) {
  util::lock_guard lock(mutex_);
  idle_[session->dual_side() ? 1 : 0].push_back(std::move(session));
}

void lm_session_pool::note_unrealizable(const lattice::dims& d) {
  util::lock_guard lock(mutex_);
  for (const lattice::dims& f : unsat_frontier_) {
    if (d.rows <= f.rows && d.cols <= f.cols) {
      return;  // already dominated
    }
  }
  std::erase_if(unsat_frontier_, [&](const lattice::dims& f) {
    return f.rows <= d.rows && f.cols <= d.cols;
  });
  unsat_frontier_.push_back(d);
}

bool lm_session_pool::known_unrealizable(const lattice::dims& d) const {
  util::lock_guard lock(mutex_);
  for (const lattice::dims& f : unsat_frontier_) {
    if (d.rows <= f.rows && d.cols <= f.cols) {
      return true;
    }
  }
  return false;
}

std::size_t lm_session_pool::sessions_created() const {
  util::lock_guard lock(mutex_);
  return created_;
}

std::uint64_t lm_session_pool::pruned_probes() const {
  util::lock_guard lock(mutex_);
  return pruned_;
}

void lm_session_pool::count_pruned_probe() {
  util::lock_guard lock(mutex_);
  ++pruned_;
}

}  // namespace janus::lm
