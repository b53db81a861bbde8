#include "sat/solver.hpp"

#include <algorithm>
#include <unordered_map>

#include "sat/simplify.hpp"

namespace janus::sat {

namespace {
inline bool is_true(lbool v) { return v == lbool::true_value; }
inline bool is_false(lbool v) { return v == lbool::false_value; }
inline bool is_undef(lbool v) { return v == lbool::undef; }

// Fixed search constants (MiniSat/glucose conventions; docs/solver.md).
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
/// Polarity of a never-assigned variable (and of a free eliminated one).
constexpr bool kDefaultPhase = false;
/// LBD boundary between the tier2 and local learnt tiers.
constexpr std::uint32_t kTier2Lbd = 6;
/// Conflicts before the one-time preprocessing pass (bounded variable
/// elimination included), which is DEFERRED to the first restart boundary
/// past this count rather than run up-front: a solve that finishes sooner
/// is bit-identical to an inprocess=false run and pays zero simplification
/// overhead, so only formulas that prove hard get simplified.
constexpr std::uint64_t kPreprocessDelay = 300;
}  // namespace

// --------------------------------------------------------------------------
// Variables and clauses
// --------------------------------------------------------------------------

var solver::new_var() {
  const var v = static_cast<var>(assigns_.size());
  assigns_.push_back(lbool::undef);
  lit_values_.push_back(lbool::undef);
  lit_values_.push_back(lbool::undef);
  saved_phase_.push_back(kDefaultPhase ? 1 : 0);
  level_.push_back(0);
  reason_.push_back(cr_undef);
  activity_.push_back(0.0);
  seen_.push_back(0);
  lbd_seen_.push_back(0);
  heap_index_.push_back(-1);
  frozen_.push_back(0);
  eliminated_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

void solver::freeze(var v) {
  JANUS_CHECK_MSG(v >= 0 && v < num_vars(), "freeze of unallocated variable");
  JANUS_CHECK_MSG(!is_eliminated(v),
                  "variable was already eliminated; freeze it before solve()");
  frozen_[static_cast<std::size_t>(v)] = 1;
}

void solver::decay_heuristics(bool rephase) {
  // Shrink every activity by a huge uniform factor instead of zeroing: the
  // next solve's bumps (var_inc_ back at 1.0) dominate the residue, so the
  // solver effectively restarts its branching heuristic, yet ties among
  // never-bumped variables still break the same way they would in a fresh
  // solver. Uniform scaling preserves the heap order, so no re-heapify is
  // needed.
  for (double& a : activity_) {
    a *= 1e-30;
  }
  var_inc_ = 1.0;
  if (rephase) {
    std::fill(saved_phase_.begin(), saved_phase_.end(),
              kDefaultPhase ? std::uint8_t{1} : std::uint8_t{0});
  }
}

solver::clause_ref solver::alloc_clause(std::span<const lit> lits, bool learnt) {
  const std::size_t extra = learnt ? 2 : 0;
  const auto c = static_cast<clause_ref>(arena_.size());
  const std::size_t needed = arena_.size() + 1 + extra + lits.size();
  JANUS_CHECK_MSG(needed <= binary_tag, "clause arena exceeds 2^31 words");
  if (needed > arena_.capacity()) {
    // Grow geometrically; a bare reserve(needed) would reallocate the whole
    // arena on every allocation.
    arena_.reserve(std::max(needed, arena_.capacity() * 2));
  }
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 3) |
                   (learnt ? 2u : 0u));
  if (learnt) {
    arena_.push_back(0);  // activity (float bits)
    arena_.push_back(0);  // lbd
  }
  for (const lit l : lits) {
    arena_.push_back(static_cast<std::uint32_t>(l.code()));
  }
  if (!learnt) {
    originals_since_sweep_ = true;
  }
  return c;
}

bool solver::locked(clause_ref c) const {
  // A binary reason may hold its implied literal at either position.
  const lit* lits = clause_lits(c);
  const auto is_reason_of = [&](lit l) {
    return is_true(value(l)) &&
           reason_[static_cast<std::size_t>(l.variable())] == c;
  };
  return is_reason_of(lits[0]) || (clause_size(c) == 2 && is_reason_of(lits[1]));
}

const lit* solver::reason_lits(clause_ref c, lit implied) {
  lit* lits = clause_lits(c);
  if (lits[0] != implied) {
    std::swap(lits[0], lits[1]);
  }
  return lits;
}

void solver::attach_clause(clause_ref c) {
  const lit* lits = clause_lits(c);
  JANUS_CHECK(clause_size(c) >= 2);
  const clause_ref tagged = clause_size(c) == 2 ? c | binary_tag : c;
  watches_[static_cast<std::size_t>((~lits[0]).code())].push_back({tagged, lits[1]});
  watches_[static_cast<std::size_t>((~lits[1]).code())].push_back({tagged, lits[0]});
}

void solver::detach_clause(clause_ref c) {
  const lit* lits = clause_lits(c);
  for (int w = 0; w < 2; ++w) {
    auto& list = watches_[static_cast<std::size_t>((~lits[w]).code())];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if ((list[i].cref & ~binary_tag) == c) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

void solver::remove_clause(clause_ref c) {
  detach_clause(c);
  arena_wasted_ += 1 + (clause_learnt(c) ? 2 : 0) + clause_size(c);
  arena_[c] |= 1u;  // mark deleted
  ++stats_.removed_clauses;
}

bool solver::add_clause(std::initializer_list<lit> lits) {
  return add_clause(std::span<const lit>(lits.begin(), lits.size()));
}

bool solver::add_clause(std::span<const lit> lits) {
  JANUS_CHECK(decision_level() == 0);  // solve() always ends at level 0
  if (!ok_) {
    return false;
  }
  std::vector<lit> copy;
  copy.reserve(lits.size());
  for (const lit l : lits) {
    JANUS_CHECK_MSG(!l.is_undef() && l.variable() < num_vars(),
                    "literal over unallocated solver variable");
    JANUS_CHECK_MSG(!is_eliminated(l.variable()),
                    "clause over an eliminated variable; freeze interface "
                    "variables before solve()");
    copy.push_back(l);
  }
  std::sort(copy.begin(), copy.end());
  std::vector<lit> cleaned;
  cleaned.reserve(copy.size());
  for (std::size_t i = 0; i < copy.size(); ++i) {
    const lit l = copy[i];
    if (i + 1 < copy.size() && copy[i + 1] == ~l) {
      return true;  // tautological clause
    }
    if (i > 0 && copy[i - 1] == l) {
      continue;  // duplicate literal
    }
    if (is_true(value(l))) {
      return true;  // already satisfied at top level
    }
    if (is_false(value(l))) {
      continue;  // falsified at top level: drop
    }
    cleaned.push_back(l);
  }
  if (cleaned.empty()) {
    ok_ = false;
    return false;
  }
  if (cleaned.size() == 1) {
    unchecked_enqueue(cleaned[0], cr_undef);
    if (propagate() != cr_undef) {
      ok_ = false;
    }
    return ok_;
  }
  const clause_ref c = alloc_clause(cleaned, /*learnt=*/false);
  clauses_.push_back(c);
  attach_clause(c);
  return true;
}

bool solver::add_cnf(const cnf& formula) {
  while (num_vars() < formula.num_vars()) {
    (void)new_var();
  }
  for (std::size_t i = 0; i < formula.num_clauses(); ++i) {
    if (!add_clause(formula.clause(i))) {
      return false;
    }
  }
  return ok_;
}

// --------------------------------------------------------------------------
// Trail
// --------------------------------------------------------------------------

void solver::unchecked_enqueue(lit p, clause_ref from) {
  const auto v = static_cast<std::size_t>(p.variable());
  JANUS_CHECK(is_undef(assigns_[v]));
  assigns_[v] = to_lbool(!p.negated());
  lit_values_[static_cast<std::size_t>(p.code())] = lbool::true_value;
  lit_values_[static_cast<std::size_t>((~p).code())] = lbool::false_value;
  level_[v] = decision_level();
  reason_[v] = from;
  trail_.push_back(p);
}

solver::clause_ref solver::propagate() {
  clause_ref confl = cr_undef;
  while (qhead_ < trail_.size()) {
    const lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>(p.code())];
    // Raw cursors: no call below reallocates `ws` (a moved watch always
    // lands on another literal's list).
    watcher* i = ws.data();
    watcher* j = i;
    watcher* const end = i + ws.size();
    const lit false_lit = ~p;
    while (i != end) {
      const watcher w = *i++;
      const lbool blocker_value = value(w.blocker);
      if (is_true(blocker_value)) {
        *j++ = w;
        continue;
      }
      if ((w.cref & binary_tag) != 0) {
        // Binary clause: the blocker is the other literal.
        const clause_ref c = w.cref & ~binary_tag;
        *j++ = w;
        if (is_false(blocker_value)) {
          // Leave the falsified watch at position 1, as a full visit would.
          lit* lits = clause_lits(c);
          if (lits[0] == false_lit) {
            std::swap(lits[0], lits[1]);
          }
          confl = c;
          qhead_ = trail_.size();
          while (i != end) {
            *j++ = *i++;
          }
        } else {
          unchecked_enqueue(w.blocker, c);
        }
        continue;
      }
      const clause_ref c = w.cref;
      lit* lits = clause_lits(c);
      if (lits[0] == false_lit) {
        std::swap(lits[0], lits[1]);
      }
      const lit first = lits[0];
      const watcher keep{c, first};
      if (first != w.blocker && is_true(value(first))) {
        *j++ = keep;
        continue;
      }
      const std::uint32_t size = clause_size(c);
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (!is_false(value(lits[k]))) {
          lits[1] = lits[k];
          lits[k] = false_lit;
          watches_[static_cast<std::size_t>((~lits[1]).code())].push_back(keep);
          moved = true;
          break;
        }
      }
      if (moved) {
        continue;
      }
      *j++ = keep;
      if (is_false(value(first))) {
        confl = c;
        qhead_ = trail_.size();
        while (i != end) {
          *j++ = *i++;
        }
      } else {
        unchecked_enqueue(first, c);
      }
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return confl;
}

void solver::cancel_until(int target_level) {
  if (decision_level() <= target_level) {
    return;
  }
  const int boundary = trail_lim_[static_cast<std::size_t>(target_level)];
  for (int i = static_cast<int>(trail_.size()) - 1; i >= boundary; --i) {
    const lit p = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(p.variable());
    assigns_[v] = lbool::undef;
    lit_values_[static_cast<std::size_t>(p.code())] = lbool::undef;
    lit_values_[static_cast<std::size_t>((~p).code())] = lbool::undef;
    saved_phase_[v] = p.negated() ? 0 : 1;
    if (!heap_contains(p.variable())) {
      heap_insert(p.variable());
    }
  }
  qhead_ = static_cast<std::size_t>(boundary);
  trail_.resize(static_cast<std::size_t>(boundary));
  trail_lim_.resize(static_cast<std::size_t>(target_level));
}

// --------------------------------------------------------------------------
// Conflict analysis
// --------------------------------------------------------------------------

void solver::analyze(clause_ref confl, std::vector<lit>& out_learnt,
                     int& out_btlevel, std::uint32_t& out_lbd) {
  out_learnt.clear();
  out_learnt.push_back(lit_undef);  // placeholder for the asserting literal
  analyze_to_clear_.clear();
  int path_count = 0;
  lit p = lit_undef;
  int index = static_cast<int>(trail_.size()) - 1;
  clause_ref c = confl;

  do {
    JANUS_CHECK(c != cr_undef);
    if (clause_learnt(c)) {
      clause_bump_activity(c);
      // Tier protection + LBD refresh: a learnt clause that keeps feeding
      // conflict analysis is marked used (reduce_learnts spares it) and an
      // improved LBD can promote it into a safer tier.
      bump_clause_usage(c);
      const std::uint32_t fresh = compute_lbd(clause_span(c));
      if (fresh < clause_lbd(c)) {
        set_clause_lbd(c, fresh);
      }
    }
    const lit* cl = p == lit_undef ? clause_lits(c) : reason_lits(c, p);
    const std::uint32_t size = clause_size(c);
    for (std::uint32_t k = (p == lit_undef) ? 0 : 1; k < size; ++k) {
      const lit q = cl[k];
      const var v = q.variable();
      if (seen_[static_cast<std::size_t>(v)] == 0 && level(v) > 0) {
        var_bump_activity(v);
        seen_[static_cast<std::size_t>(v)] = 1;
        analyze_to_clear_.push_back(q);
        if (level(v) >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    while (seen_[static_cast<std::size_t>(
               trail_[static_cast<std::size_t>(index)].variable())] == 0) {
      --index;
    }
    p = trail_[static_cast<std::size_t>(index)];
    --index;
    c = reason_[static_cast<std::size_t>(p.variable())];
    seen_[static_cast<std::size_t>(p.variable())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Basic self-subsumption minimization: a reason-implied literal whose whole
  // reason is already in the clause (or at level 0) is redundant.
  std::size_t kept = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (!literal_redundant(out_learnt[i])) {
      out_learnt[kept++] = out_learnt[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  out_learnt.resize(kept);

  // Find the backtrack level (second-highest decision level in the clause).
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level(out_learnt[i].variable()) > level(out_learnt[max_i].variable())) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(out_learnt[1].variable());
  }

  out_lbd = compute_lbd(out_learnt);

  // Clear every var marked during this analysis, including literals dropped
  // by minimization (stale marks would corrupt later analyses).
  for (const lit q : analyze_to_clear_) {
    seen_[static_cast<std::size_t>(q.variable())] = 0;
  }
  analyze_to_clear_.clear();
}

bool solver::literal_redundant(lit p) {
  const clause_ref c = reason_[static_cast<std::size_t>(p.variable())];
  if (c == cr_undef) {
    return false;
  }
  const lit* cl = reason_lits(c, ~p);
  const std::uint32_t size = clause_size(c);
  for (std::uint32_t k = 1; k < size; ++k) {
    const var v = cl[k].variable();
    if (seen_[static_cast<std::size_t>(v)] == 0 && level(v) > 0) {
      return false;
    }
  }
  return true;
}

void solver::analyze_final(lit p) {
  conflict_core_.clear();
  conflict_core_.push_back(p);
  if (decision_level() == 0) {
    return;
  }
  seen_[static_cast<std::size_t>(p.variable())] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1;
       i >= trail_lim_[0]; --i) {
    const var x = trail_[static_cast<std::size_t>(i)].variable();
    if (seen_[static_cast<std::size_t>(x)] == 0) {
      continue;
    }
    const clause_ref r = reason_[static_cast<std::size_t>(x)];
    if (r == cr_undef) {
      if (level(x) > 0) {
        conflict_core_.push_back(~trail_[static_cast<std::size_t>(i)]);
      }
    } else {
      const lit* cl = reason_lits(r, trail_[static_cast<std::size_t>(i)]);
      const std::uint32_t size = clause_size(r);
      for (std::uint32_t k = 1; k < size; ++k) {
        if (level(cl[k].variable()) > 0) {
          seen_[static_cast<std::size_t>(cl[k].variable())] = 1;
        }
      }
    }
    seen_[static_cast<std::size_t>(x)] = 0;
  }
  seen_[static_cast<std::size_t>(p.variable())] = 0;
}

std::uint32_t solver::compute_lbd(std::span<const lit> lits) {
  ++lbd_stamp_;
  std::uint32_t distinct = 0;
  for (const lit l : lits) {
    const auto lvl = static_cast<std::size_t>(level(l.variable()));
    if (lvl == 0) {
      continue;
    }
    // Levels past num_vars (dummy assumption levels) share slots modulo the
    // table size; the division is paid only then.
    std::uint64_t& seen =
        lbd_seen_[lvl < lbd_seen_.size() ? lvl : lvl % lbd_seen_.size()];
    if (seen != lbd_stamp_) {
      seen = lbd_stamp_;
      ++distinct;
    }
  }
  return distinct == 0 ? 1 : distinct;
}

// --------------------------------------------------------------------------
// Activity heuristics and the variable-order heap
// --------------------------------------------------------------------------

void solver::var_bump_activity(var v) {
  auto& act = activity_[static_cast<std::size_t>(v)];
  act += var_inc_;
  if (act > 1e100) {
    for (auto& a : activity_) {
      a *= 1e-100;
    }
    var_inc_ *= 1e-100;
  }
  heap_update(v);
}

void solver::clause_bump_activity(clause_ref c) {
  float& act = clause_activity(c);
  act += static_cast<float>(clause_inc_);
  if (act > 1e20f) {
    for (const clause_ref lc : learnts_) {
      clause_activity(lc) *= 1e-20f;
    }
    clause_inc_ *= 1e-20;
  }
}

void solver::heap_insert(var v) {
  if (heap_contains(v)) {
    return;
  }
  heap_index_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(static_cast<int>(heap_.size()) - 1);
}

void solver::heap_update(var v) {
  if (heap_contains(v)) {
    heap_sift_up(heap_index_[static_cast<std::size_t>(v)]);
  }
}

var solver::heap_pop() {
  JANUS_CHECK(!heap_.empty());
  const var top = heap_[0];
  heap_index_[static_cast<std::size_t>(top)] = -1;
  const var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_index_[static_cast<std::size_t>(last)] = 0;
    heap_sift_down(0);
  }
  return top;
}

void solver::heap_sift_up(int i) {
  const var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (!heap_less(v, heap_[static_cast<std::size_t>(parent)])) {
      break;
    }
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heap_index_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_index_[static_cast<std::size_t>(v)] = i;
}

void solver::heap_sift_down(int i) {
  const var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_less(heap_[static_cast<std::size_t>(child + 1)],
                                   heap_[static_cast<std::size_t>(child)])) {
      ++child;
    }
    if (!heap_less(heap_[static_cast<std::size_t>(child)], v)) {
      break;
    }
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heap_index_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_index_[static_cast<std::size_t>(v)] = i;
}

lit solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const var v = heap_pop();
    if (is_undef(value(v)) && !is_eliminated(v)) {
      return lit::make(v, saved_phase_[static_cast<std::size_t>(v)] == 0);
    }
  }
  return lit_undef;
}

// --------------------------------------------------------------------------
// Clause-database management
// --------------------------------------------------------------------------

void solver::reduce_learnts() {
  // Tiered policy: core clauses (LBD <= 2) are kept forever, tier2 clauses
  // (LBD <= kTier2Lbd) survive while their usage counter shows recent
  // conflict participation (decremented here, so an unused clause demotes
  // after a few reductions), and the local tier is halved by (LBD, activity).
  std::vector<clause_ref> candidates;
  candidates.reserve(learnts_.size());
  for (const clause_ref c : learnts_) {
    if (locked(c) || clause_lbd(c) <= 2 || clause_size(c) <= 2) {
      continue;  // core tier (or currently a reason): never removed
    }
    if (clause_lbd(c) <= kTier2Lbd && clause_usage(c) > 0) {
      decay_clause_usage(c);
      continue;  // tier2: protected while recently used
    }
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](clause_ref a, clause_ref b) {
              if (clause_lbd(a) != clause_lbd(b)) {
                return clause_lbd(a) > clause_lbd(b);
              }
              return clause_activity(a) < clause_activity(b);
            });
  const std::size_t to_remove = candidates.size() / 2;
  for (std::size_t i = 0; i < to_remove; ++i) {
    remove_clause(candidates[i]);
  }
  std::vector<clause_ref> kept;
  kept.reserve(learnts_.size() - to_remove);
  for (const clause_ref c : learnts_) {
    if (!clause_deleted(c)) {
      kept.push_back(c);
    }
  }
  learnts_ = std::move(kept);
}

void solver::simplify_top_level() {
  JANUS_CHECK(decision_level() == 0);
  // A clause turns satisfied at level 0 only through a new level-0 fact:
  // learnt clauses hold no level-0 literal at birth, and add_clause() drops
  // clauses satisfied at level 0. So unless the level-0 trail grew or an
  // original clause arrived since the last sweep, a sweep removes nothing.
  // Garbage collection below still runs every time: it rebuilds the watch
  // lists, so skipping it would change the search.
  const auto sweep = [this](std::vector<clause_ref>& list) {
    std::size_t j = 0;
    for (const clause_ref c : list) {
      const lit* cl = clause_lits(c);
      const std::uint32_t size = clause_size(c);
      bool satisfied = false;
      for (std::uint32_t k = 0; k < size; ++k) {
        if (is_true(value(cl[k]))) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) {
        remove_clause(c);
      } else {
        list[j++] = c;
      }
    }
    list.resize(j);
  };
  if (trail_.size() != swept_trail_size_ || originals_since_sweep_) {
    swept_trail_size_ = trail_.size();
    originals_since_sweep_ = false;
    sweep(clauses_);
    sweep(learnts_);
  }
  garbage_collect_if_needed();
}

void solver::garbage_collect_if_needed() {
  if (arena_wasted_ * 3 > arena_.size() && arena_wasted_ > 4096) {
    garbage_collect();
  }
}

void solver::garbage_collect() {
  std::vector<std::uint32_t> fresh;
  fresh.reserve(arena_.size() - arena_wasted_);
  std::unordered_map<clause_ref, clause_ref> forward;
  forward.reserve(clauses_.size() + learnts_.size());

  const auto relocate = [&](clause_ref c) -> clause_ref {
    const auto it = forward.find(c);
    if (it != forward.end()) {
      return it->second;
    }
    const auto fresh_ref = static_cast<clause_ref>(fresh.size());
    const std::size_t words = 1 + (clause_learnt(c) ? 2 : 0) + clause_size(c);
    fresh.insert(fresh.end(), arena_.begin() + c,
                 arena_.begin() + static_cast<std::ptrdiff_t>(c + words));
    forward.emplace(c, fresh_ref);
    return fresh_ref;
  };

  for (auto& c : clauses_) {
    c = relocate(c);
  }
  for (auto& c : learnts_) {
    c = relocate(c);
  }
  for (std::size_t v = 0; v < reason_.size(); ++v) {
    clause_ref& r = reason_[v];
    if (r == cr_undef) {
      continue;
    }
    if (is_undef(assigns_[v]) || clause_deleted(r)) {
      r = cr_undef;  // stale reason of an unassigned or level-0-satisfied var
    } else {
      r = forward.at(r);
    }
  }
  arena_ = std::move(fresh);
  arena_wasted_ = 0;

  for (auto& list : watches_) {
    list.clear();
  }
  for (const clause_ref c : clauses_) {
    attach_clause(c);
  }
  for (const clause_ref c : learnts_) {
    attach_clause(c);
  }
}

// --------------------------------------------------------------------------
// Search
// --------------------------------------------------------------------------

bool solver::budget_expired() const {
  if (stopped_externally()) {
    return true;
  }
  if (deadline_hit_) {
    return true;
  }
  if (conflict_limit_abs_ >= 0 &&
      static_cast<std::int64_t>(stats_.conflicts) >= conflict_limit_abs_) {
    return true;
  }
  if (propagation_limit_abs_ >= 0 &&
      static_cast<std::int64_t>(stats_.propagations) >= propagation_limit_abs_) {
    return true;
  }
  return false;
}

solve_result solver::search() {
  std::int64_t conflicts_here = 0;
  std::vector<lit> learnt;
  while (true) {
    const clause_ref confl = propagate();
    if (confl != cr_undef) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (decision_level() == 0) {
        ok_ = false;
        return solve_result::unsat;
      }
      int bt_level = 0;
      std::uint32_t lbd = 0;
      analyze(confl, learnt, bt_level, lbd);
      if (on_learnt) {
        on_learnt(learnt);
      }
      lbd_ema_fast_ += (static_cast<double>(lbd) - lbd_ema_fast_) / 32.0;
      lbd_ema_slow_ += (static_cast<double>(lbd) - lbd_ema_slow_) / 8192.0;
      cancel_until(bt_level);
      if (learnt.size() == 1) {
        unchecked_enqueue(learnt[0], cr_undef);
      } else {
        const clause_ref c = alloc_clause(learnt, /*learnt=*/true);
        set_clause_lbd(c, lbd);
        learnts_.push_back(c);
        attach_clause(c);
        clause_bump_activity(c);
        unchecked_enqueue(learnt[0], c);
        ++stats_.learned_clauses;
      }
      var_inc_ /= kVarDecay;
      clause_inc_ /= kClauseDecay;

      if ((stats_.conflicts & 255u) == 0 && deadline_.expired()) {
        deadline_hit_ = true;
      }
      if (budget_expired()) {
        cancel_until(assumption_root_level());
        return solve_result::unknown;
      }
      // Restart as soon as recent learnt quality (fast LBD average) degrades
      // against the long-run average, after a short warm-up.
      if (conflicts_here >= 32 && stats_.conflicts >= 128 &&
          lbd_ema_fast_ > 1.25 * lbd_ema_slow_) {
        cancel_until(0);
        return solve_result::unknown;  // restart
      }
      if (stats_.conflicts >= next_reduce_) {
        reduce_learnts();
        garbage_collect_if_needed();
        ++reductions_done_;
        next_reduce_ = stats_.conflicts +
                       static_cast<std::uint64_t>(options_.reduce_base) +
                       static_cast<std::uint64_t>(options_.reduce_increment) *
                           static_cast<std::uint64_t>(reductions_done_);
      }
      continue;
    }

    // No conflict.
    if (decision_level() == 0) {
      simplify_top_level();
      if (!ok_) {
        return solve_result::unsat;
      }
    }

    lit next = lit_undef;
    while (decision_level() < static_cast<int>(assumptions_.size())) {
      const lit p = assumptions_[static_cast<std::size_t>(decision_level())];
      if (is_true(value(p))) {
        new_decision_level();  // dummy level for an already-satisfied assumption
      } else if (is_false(value(p))) {
        analyze_final(~p);
        return solve_result::unsat;
      } else {
        next = p;
        break;
      }
    }
    if (next == lit_undef) {
      ++stats_.decisions;
      // Long conflict-free stretches (e.g. an instance about to be satisfied)
      // would otherwise never reach the per-conflict budget checks; poll the
      // cheap external stop flag every decision and the clock occasionally.
      if ((stats_.decisions & 255u) == 0 && deadline_.expired()) {
        deadline_hit_ = true;
      }
      if (stopped_externally() || deadline_hit_) {
        cancel_until(assumption_root_level());
        return solve_result::unknown;
      }
      next = pick_branch_lit();
      if (next == lit_undef) {
        model_.assign(assigns_.begin(), assigns_.end());
        return solve_result::sat;
      }
    }
    new_decision_level();
    unchecked_enqueue(next, cr_undef);
  }
}

void solver::extend_model() {
  // Replay the reconstruction stack newest-first: a clause saved when `v`
  // was eliminated only mentions variables that were still live at that
  // moment, and replaying in reverse chronological order restores those
  // first, so every lookup below reads a final value.
  const auto model_lit_true = [this](lit l) {
    return apply_sign(model_[static_cast<std::size_t>(l.variable())],
                      l.negated()) == lbool::true_value;
  };
  for (auto it = reconstruction_.rbegin(); it != reconstruction_.rend(); ++it) {
    const auto vi = static_cast<std::size_t>(it->v);
    // Pick the polarity that satisfies every clause the elimination removed
    // (at most one polarity is forced when the resolvents are satisfied,
    // which the model guarantees).
    lbool forced = lbool::undef;
    std::size_t pos = 0;
    for (const std::uint32_t size : it->clause_sizes) {
      bool satisfied = false;
      lit mine = lit_undef;
      for (std::uint32_t k = 0; k < size; ++k) {
        const lit l = it->clause_lits[pos + k];
        if (l.variable() == it->v) {
          mine = l;
          continue;
        }
        if (model_lit_true(l)) {
          satisfied = true;
          break;
        }
      }
      pos += size;
      if (!satisfied && !mine.is_undef()) {
        forced = to_lbool(!mine.negated());
      }
    }
    model_[vi] = forced == lbool::undef ? to_lbool(kDefaultPhase) : forced;
  }
}

solve_result solver::solve(std::span<const lit> assumptions) {
  model_.clear();
  conflict_core_.clear();
  if (!ok_) {
    return solve_result::unsat;
  }
  // Freeze assumption variables against elimination in this and future
  // inprocessing rounds.
  assumptions_.assign(assumptions.begin(), assumptions.end());
  for (const lit a : assumptions_) {
    JANUS_CHECK_MSG(!a.is_undef() && a.variable() < num_vars(),
                    "assumption over unallocated variable");
    JANUS_CHECK_MSG(!is_eliminated(a.variable()),
                    "assumption over an eliminated variable; freeze interface "
                    "variables before solve()");
    if (options_.inprocess) {
      freeze(a.variable());
    }
  }
  deadline_hit_ = false;
  conflict_limit_abs_ =
      conflict_budget_ < 0
          ? -1
          : static_cast<std::int64_t>(stats_.conflicts) + conflict_budget_;
  propagation_limit_abs_ =
      propagation_budget_ < 0
          ? -1
          : static_cast<std::int64_t>(stats_.propagations) + propagation_budget_;
  next_reduce_ = stats_.conflicts + static_cast<std::uint64_t>(options_.reduce_base);
  reductions_done_ = 0;

  solve_result status = solve_result::unknown;

  // Deferred preprocessing: the one-time full reduction (bounded variable
  // elimination included) runs at the first restart boundary past
  // kPreprocessDelay conflicts, not here. Eliminating variables mid-search
  // is sound because eliminate_variables() drops every learnt clause over an
  // eliminated variable (implied by the original formula, not the reduced
  // one) and assumption variables were frozen above.
  if (options_.inprocess && !preprocessed_ && !inprocess_scheduled_) {
    inprocess_scheduled_ = true;
    next_inprocess_ = stats_.conflicts + kPreprocessDelay;
  }
  if (!ok_) {
    status = solve_result::unsat;
  }

  while (status == solve_result::unknown) {
    if (deadline_.expired()) {
      deadline_hit_ = true;
    }
    if (budget_expired()) {
      break;
    }
    // Inprocessing rounds run at restart boundaries on a conflict-count
    // schedule; they need a clean level-0 state.
    if (options_.inprocess && stats_.conflicts >= next_inprocess_) {
      cancel_until(0);
      if (!preprocessed_) {
        // First round on a formula that proved hard: the full preprocessing
        // pass. Bounded variable elimination lives ONLY here — clauses added
        // after this point may reference any unfrozen variable, so
        // elimination cannot run again (sessions freeze their interface
        // variables; scratch solves never add clauses after the first
        // solve()).
        preprocessed_ = true;
        simplifier(*this).preprocess();
      } else {
        simplifier(*this).inprocess();
      }
      next_inprocess_ = stats_.conflicts +
                        static_cast<std::uint64_t>(options_.inprocess_interval);
      if (!ok_) {
        status = solve_result::unsat;
        break;
      }
    }
    status = search();
    if (status == solve_result::unknown && !budget_expired()) {
      ++stats_.restarts;
    }
  }

  if (status == solve_result::sat) {
    extend_model();
  }
  cancel_until(0);
  return status;
}

lbool solver::model_value(var v) const {
  if (v < 0 || static_cast<std::size_t>(v) >= model_.size()) {
    return lbool::undef;
  }
  return model_[static_cast<std::size_t>(v)];
}

}  // namespace janus::sat
