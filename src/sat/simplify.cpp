#include "sat/simplify.hpp"

#include <algorithm>

namespace janus::sat {

namespace {
inline bool is_true(lbool v) { return v == lbool::true_value; }
inline bool is_false(lbool v) { return v == lbool::false_value; }
inline bool is_undef(lbool v) { return v == lbool::undef; }

// Per-round work caps (docs/solver.md).
constexpr std::size_t kVivifyPerRound = 96;     // learnt clauses vivified
constexpr std::uint32_t kVivifySizeLimit = 48;  // longest clause vivified
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

void simplifier::cleanup() {
  if (settle()) {
    finish();
  }
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
