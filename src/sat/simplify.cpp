#include "sat/simplify.hpp"

#include <algorithm>
#include <utility>

namespace janus::sat {

namespace {
inline bool is_true(lbool v) { return v == lbool::true_value; }
inline bool is_false(lbool v) { return v == lbool::false_value; }
inline bool is_undef(lbool v) { return v == lbool::undef; }

// Per-round work caps (docs/solver.md).
constexpr std::size_t kBveOccurrenceLimit = 16;  // per-polarity occurrences
constexpr std::size_t kBveResolventLimit = 24;   // literals of a kept resolvent
constexpr std::size_t kVivifyPerRound = 96;      // learnt clauses vivified
constexpr std::uint32_t kVivifySizeLimit = 48;   // longest clause vivified
}  // namespace

// --------------------------------------------------------------------------
// Round plumbing
// --------------------------------------------------------------------------

void simplifier::clear_level0_reasons() {
  // Level-0 assignments are permanent facts; their reason clauses may be
  // removed or rewritten during the round, so detach them from the trail
  // (locked() must not pin them and no dangling refs may survive).
  for (const lit p : s_.trail_) {
    s_.reason_[static_cast<std::size_t>(p.variable())] = solver::cr_undef;
  }
}

bool simplifier::settle() {
  JANUS_CHECK(s_.decision_level() == 0);
  if (s_.propagate() != solver::cr_undef) {
    s_.ok_ = false;
    return false;
  }
  clear_level0_reasons();
  cleanup_list(s_.clauses_);
  cleanup_list(s_.learnts_);
  return s_.ok_;
}

void simplifier::cleanup_list(std::vector<solver::clause_ref>& list) {
  std::size_t j = 0;
  for (const solver::clause_ref c : list) {
    if (s_.clause_deleted(c)) {
      continue;
    }
    lit* lits = s_.clause_lits(c);
    const std::uint32_t size = s_.clause_size(c);
    bool satisfied = false;
    for (std::uint32_t k = 0; k < size && !satisfied; ++k) {
      satisfied = is_true(s_.value(lits[k]));
    }
    if (satisfied) {
      s_.remove_clause(c);
      continue;
    }
    // Strip false literals in place. After propagation to fixpoint an
    // unsatisfied clause has both watched positions unassigned (a false
    // watch would have moved or made the clause unit), so the first two
    // literals survive and the watch lists stay valid.
    std::uint32_t w = 0;
    for (std::uint32_t k = 0; k < size; ++k) {
      if (!is_false(s_.value(lits[k]))) {
        lits[w++] = lits[k];
      }
    }
    JANUS_CHECK(w >= 2);
    if (w != size) {
      s_.arena_wasted_ += size - w;
      s_.arena_[c] = (w << 3) | (s_.arena_[c] & 7u);
    }
    list[j++] = c;
  }
  list.resize(j);
}

void simplifier::index_clause(solver::clause_ref c) {
  for (const lit l : s_.clause_span(c)) {
    occ_.add(l, c);
  }
}

void simplifier::finish() {
  const auto purge = [this](std::vector<solver::clause_ref>& list) {
    std::size_t j = 0;
    for (const solver::clause_ref c : list) {
      if (!s_.clause_deleted(c)) {
        list[j++] = c;
      }
    }
    list.resize(j);
  };
  purge(s_.clauses_);
  purge(s_.learnts_);
  s_.garbage_collect_if_needed();
}

// --------------------------------------------------------------------------
// Bounded variable elimination (preprocessing only)
// --------------------------------------------------------------------------

void simplifier::eliminate_variables() {
  const int n = s_.num_vars();
  std::vector<std::pair<std::uint32_t, var>> order;
  order.reserve(static_cast<std::size_t>(n));
  for (var v = 0; v < n; ++v) {
    if (s_.is_frozen(v) || s_.is_eliminated(v) ||
        !is_undef(s_.value(v))) {
      continue;
    }
    const std::size_t cnt =
        occ_[lit::make(v)].size() + occ_[lit::make(v, true)].size();
    if (cnt == 0) {
      continue;
    }
    order.push_back({static_cast<std::uint32_t>(cnt), v});
  }
  std::sort(order.begin(), order.end());
  for (const auto& [cnt, v] : order) {
    if (!s_.ok_ || s_.stopped_externally()) {
      return;
    }
    if (!is_undef(s_.value(v))) {
      continue;  // an earlier elimination's resolvents fixed it
    }
    try_eliminate(v);
  }
  if (!s_.ok_) {
    return;
  }
  // Learnt clauses over an eliminated variable are implied by the ORIGINAL
  // formula, not necessarily by the reduced one (which leaves the variable
  // unconstrained); keeping them would be unsound. Drop them.
  for (const solver::clause_ref c : s_.learnts_) {
    if (s_.clause_deleted(c)) {
      continue;
    }
    const std::span<const lit> cl = s_.clause_span(c);
    bool dead = false;
    for (const lit l : cl) {
      if (s_.eliminated_[static_cast<std::size_t>(l.variable())] != 0) {
        dead = true;
        break;
      }
    }
    if (dead) {
      s_.remove_clause(c);
    }
  }
}

void simplifier::gather(lit l, std::vector<solver::clause_ref>& out) {
  out.clear();
  for (const solver::clause_ref c : occ_[l]) {
    if (!s_.clause_deleted(c)) {
      out.push_back(c);
    }
  }
}

bool simplifier::resolve_pair(solver::clause_ref p, solver::clause_ref n,
                              var v, std::vector<lit>& out) {
  out.clear();
  next_stamp();
  for (const lit x : s_.clause_span(p)) {
    if (x.variable() == v) {
      continue;
    }
    stamp(x);
    out.push_back(x);
  }
  for (const lit x : s_.clause_span(n)) {
    if (x.variable() == v || stamped(x)) {
      continue;
    }
    if (stamped(~x)) {
      return false;  // tautological resolvent
    }
    stamp(x);
    out.push_back(x);
  }
  return true;
}

void simplifier::try_eliminate(var v) {
  const lit pl = lit::make(v);
  gather(pl, pos_);
  gather(~pl, neg_);
  const std::size_t before = pos_.size() + neg_.size();
  if (before == 0) {
    return;
  }
  if (pos_.size() > kBveOccurrenceLimit || neg_.size() > kBveOccurrenceLimit) {
    return;
  }
  // Longest clause being removed: elimination must never produce a clause
  // longer than the ones it replaces. Longer clauses propagate later, and on
  // the lattice encodings that measurably lengthens UNSAT proofs even when
  // the clause *count* shrinks.
  std::size_t max_parent_len = 0;
  for (const auto* half : {&pos_, &neg_}) {
    for (const solver::clause_ref c : *half) {
      max_parent_len = std::max(max_parent_len,
                                static_cast<std::size_t>(s_.clause_size(c)));
    }
  }
  resolvents_.clear();
  for (const solver::clause_ref p : pos_) {
    for (const solver::clause_ref n : neg_) {
      if (!resolve_pair(p, n, v, tmp_)) {
        continue;
      }
      if (tmp_.size() > kBveResolventLimit || tmp_.size() > max_parent_len) {
        return;  // resolvent longer than what it replaces: keep the variable
      }
      resolvents_.push_back(tmp_);
      if (resolvents_.size() + 1 > before) {
        return;  // elimination must strictly shrink the formula
      }
    }
  }
  // Commit: save the removed clauses for model reconstruction, then swap
  // them for the resolvents.
  auto& ev = s_.reconstruction_.emplace_back();
  ev.v = v;
  for (const auto* half : {&pos_, &neg_}) {
    for (const solver::clause_ref c : *half) {
      const std::span<const lit> cl = s_.clause_span(c);
      ev.clause_sizes.push_back(static_cast<std::uint32_t>(cl.size()));
      ev.clause_lits.insert(ev.clause_lits.end(), cl.begin(), cl.end());
    }
  }
  for (const auto* half : {&pos_, &neg_}) {
    for (const solver::clause_ref c : *half) {
      s_.remove_clause(c);
    }
  }
  s_.eliminated_[static_cast<std::size_t>(v)] = 1;
  ++s_.stats_.eliminated_vars;
  for (const auto& r : resolvents_) {
    const std::size_t nc = s_.clauses_.size();
    const std::size_t t0 = s_.trail_.size();
    if (!s_.add_clause(r)) {
      return;  // resolvents refuted the formula
    }
    if (s_.clauses_.size() > nc) {
      index_clause(s_.clauses_.back());
    }
    if (s_.trail_.size() != t0) {
      clear_level0_reasons();  // a unit resolvent propagated
    }
  }
}

// --------------------------------------------------------------------------
// Learnt-clause vivification
// --------------------------------------------------------------------------

void simplifier::vivify_learnts() {
  std::vector<solver::clause_ref> cands;
  for (const solver::clause_ref c : s_.learnts_) {
    if (s_.clause_deleted(c) || s_.locked(c)) {
      continue;
    }
    const std::uint32_t size = s_.clause_size(c);
    if (size < 3 || size > kVivifySizeLimit || s_.clause_lbd(c) < 3) {
      continue;
    }
    cands.push_back(c);
  }
  // Target the worst (highest-LBD) clauses: they pay the least per watch
  // step, so shrinking or strengthening them moves the needle most.
  std::sort(cands.begin(), cands.end(),
            [this](solver::clause_ref a, solver::clause_ref b) {
              return s_.clause_lbd(a) > s_.clause_lbd(b);
            });
  const std::size_t count = std::min(cands.size(), kVivifyPerRound);
  std::vector<lit> lits;
  std::vector<lit> out;
  for (std::size_t i = 0; i < count; ++i) {
    if (!s_.ok_ || s_.stopped_externally()) {
      return;
    }
    const solver::clause_ref c = cands[i];
    if (s_.clause_deleted(c) || s_.locked(c)) {
      continue;
    }
    const std::uint32_t old_lbd = s_.clause_lbd(c);
    const float old_act = s_.clause_activity(c);
    lits.assign(s_.clause_span(c).begin(), s_.clause_span(c).end());
    // The clause must not propagate against itself while its own negated
    // literals are assumed, so detach it first.
    s_.detach_clause(c);
    out.clear();
    s_.new_decision_level();
    for (const lit l : lits) {
      const lbool lv = s_.value(l);
      if (is_true(lv)) {
        out.push_back(l);  // assumed prefix already implies l: stop here
        break;
      }
      if (is_false(lv)) {
        continue;  // implied-false literal is redundant: drop it
      }
      out.push_back(l);
      s_.unchecked_enqueue(~l, solver::cr_undef);
      if (s_.propagate() != solver::cr_undef) {
        break;  // the prefix alone is contradictory with the formula
      }
    }
    s_.cancel_until(0);
    if (out.size() >= lits.size()) {
      s_.attach_clause(c);
      continue;
    }
    ++s_.stats_.vivified;
    s_.arena_[c] |= 1u;  // replaced: mark deleted (already detached)
    s_.arena_wasted_ += 1 + 2 + lits.size();
    if (out.empty()) {
      s_.ok_ = false;
      return;
    }
    if (out.size() == 1) {
      const lit u = out[0];
      ++s_.stats_.removed_clauses;
      if (is_false(s_.value(u))) {
        s_.ok_ = false;
        return;
      }
      if (is_undef(s_.value(u))) {
        s_.unchecked_enqueue(u, solver::cr_undef);
        if (s_.propagate() != solver::cr_undef) {
          s_.ok_ = false;
          return;
        }
        clear_level0_reasons();
      }
      continue;
    }
    const solver::clause_ref fresh = s_.alloc_clause(out, /*learnt=*/true);
    s_.set_clause_lbd(
        fresh, std::min(old_lbd, static_cast<std::uint32_t>(out.size()) - 1));
    s_.clause_activity(fresh) = old_act;
    s_.attach_clause(fresh);
    s_.learnts_.push_back(fresh);
  }
}

// --------------------------------------------------------------------------
// Entry points
// --------------------------------------------------------------------------

void simplifier::preprocess() {
  JANUS_CHECK(s_.decision_level() == 0);
  lit_stamp_.assign(static_cast<std::size_t>(s_.num_vars()) * 2, 0);
  if (!settle()) {
    return;
  }
  occ_.reset(s_.num_vars());
  for (const solver::clause_ref c : s_.clauses_) {
    index_clause(c);
  }
  eliminate_variables();
  if (!s_.ok_) {
    return;
  }
  finish();
}

void simplifier::inprocess() {
  JANUS_CHECK(s_.decision_level() == 0);
  if (!settle()) {
    return;
  }
  // Vivification runs speculative propagations whose cancel paths would
  // overwrite the search's saved phases with its assumed polarities; snapshot
  // and restore them so inprocessing leaves phase saving untouched.
  const std::vector<std::uint8_t> phases = s_.saved_phase_;
  vivify_learnts();
  s_.saved_phase_ = phases;
  if (!s_.ok_) {
    return;
  }
  finish();
}

}  // namespace janus::sat
