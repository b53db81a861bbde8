#include "lm/reach_encoding.hpp"

#include <vector>

#include "util/check.hpp"

namespace janus::lm {

namespace {

using lattice::cell_assign;
using lattice::dims;

/// The reachability TL always offers every literal of every variable (the
/// ablation deliberately skips the ISOP filtering of the path encoding).
lm_encode_options reach_tl_options(lm_encode_options options) {
  options.tl_isop_literals_only = false;
  return options;
}

}  // namespace

reach_session::reach_session(const target_spec& target,
                             lm_encode_options options,
                             sat::solver_options solver_options)
    : target_(target),
      options_(reach_tl_options(options)),
      solver_(solver_options) {
  tl_ = build_target_literals(target_, /*dual_side=*/false, options_);
  entries_ = target_.function().num_minterms();
  layout_.val_stride = 1;
}

std::uint64_t reach_session::ensure_slots(int cells) {
  if (layout_.num_cells() >= cells) {
    return 0;
  }
  sat::cnf delta;
  delta.ensure_vars(solver_.num_vars());
  lm_emitter emitter(target_, /*info=*/nullptr, /*dual_side=*/false, options_,
                     tl_, layout_, delta);
  for (int slot = layout_.num_cells(); slot < cells; ++slot) {
    layout_.map_base.push_back(delta.new_vars(static_cast<int>(tl_.size())));
    layout_.val_base.push_back(delta.new_vars(static_cast<int>(entries_)));
    emitter.emit_exactly_one(slot);
    for (std::uint64_t e = 0; e < entries_; ++e) {
      emitter.emit_links(slot, e);
    }
  }
  const int first_new_var = solver_.num_vars();
  JANUS_CHECK(solver_.add_cnf(delta));
  // Core slot variables are referenced by every later dims group: freeze
  // them so inprocessing never eliminates them.
  for (sat::var v = first_new_var; v < solver_.num_vars(); ++v) {
    solver_.freeze(v);
  }
  return delta.num_clauses();
}

lm_result reach_session::probe(const dims& d, const lm_options& options,
                               deadline budget) {
  lm_result result;
  stopwatch encode_clock;

  const auto key = std::make_pair(d.rows, d.cols);
  sat::lit activation = sat::lit_undef;
  const auto found = groups_.find(key);
  if (found != groups_.end()) {
    activation = found->second;
  } else {
    // Count core growth into this probe's stats, matching lm_session's
    // "clauses newly added for this probe" semantics.
    const int vars_before = solver_.num_vars();
    const std::uint64_t core_clauses = ensure_slots(d.size());

    sat::cnf delta;
    delta.ensure_vars(solver_.num_vars());
    activation = sat::lit::make(delta.new_var());
    // All unrolling clauses go through the shared guard mechanism:
    // activation -> clause, exactly like the path encoding's dims groups.
    lm_emitter emitter(target_, /*info=*/nullptr, /*dual_side=*/false,
                       options_, tl_, layout_, delta);
    emitter.set_activation(activation);
    const auto add = [&emitter](std::initializer_list<sat::lit> clause) {
      emitter.add(clause);
    };

    const int levels = d.size();  // BFS converges within #cells rounds
    for (std::uint64_t e = 0; e < entries_; ++e) {
      const auto val = [&](int cell) { return layout_.val_lit(cell, e); };

      // Level 0: reachable = ON and on the top row.
      std::vector<sat::lit> reach(static_cast<std::size_t>(d.size()));
      std::vector<bool> defined(static_cast<std::size_t>(d.size()), false);
      for (int c = 0; c < d.cols; ++c) {
        reach[static_cast<std::size_t>(d.cell(0, c))] = val(d.cell(0, c));
        defined[static_cast<std::size_t>(d.cell(0, c))] = true;
      }

      // Unroll: reach_k[cell] ⇔ val[cell] ∧ OR(prev self, prev 4-neighbors).
      for (int k = 1; k <= levels; ++k) {
        std::vector<sat::lit> next(static_cast<std::size_t>(d.size()));
        std::vector<bool> next_defined(static_cast<std::size_t>(d.size()),
                                       false);
        for (int rr = 0; rr < d.rows; ++rr) {
          for (int cc = 0; cc < d.cols; ++cc) {
            const int cell = d.cell(rr, cc);
            std::vector<sat::lit> sources;
            if (defined[static_cast<std::size_t>(cell)]) {
              sources.push_back(reach[static_cast<std::size_t>(cell)]);
            }
            const int nbrs[4][2] = {{rr - 1, cc}, {rr + 1, cc},
                                    {rr, cc - 1}, {rr, cc + 1}};
            for (const auto& n : nbrs) {
              if (n[0] < 0 || n[0] >= d.rows || n[1] < 0 || n[1] >= d.cols) {
                continue;
              }
              const int ncell = d.cell(n[0], n[1]);
              if (defined[static_cast<std::size_t>(ncell)]) {
                sources.push_back(reach[static_cast<std::size_t>(ncell)]);
              }
            }
            if (rr == 0) {
              sources.push_back(val(cell));  // top plate feeds every round
            }
            if (sources.empty()) {
              continue;  // provably unreachable at this depth
            }
            const sat::lit rk = sat::lit::make(delta.new_var());
            // rk -> val[cell]; rk -> OR(sources); val & source -> rk.
            add({~rk, val(cell)});
            std::vector<sat::lit> or_clause;
            or_clause.push_back(~rk);
            for (const sat::lit s : sources) {
              or_clause.push_back(s);
              add({~val(cell), ~s, rk});
            }
            emitter.add(or_clause);
            next[static_cast<std::size_t>(cell)] = rk;
            next_defined[static_cast<std::size_t>(cell)] = true;
          }
        }
        reach = std::move(next);
        defined = std::move(next_defined);
      }

      // Output constraint on the bottom row at the final level.
      std::vector<sat::lit> bottom;
      for (int c = 0; c < d.cols; ++c) {
        const int cell = d.cell(d.rows - 1, c);
        if (defined[static_cast<std::size_t>(cell)]) {
          bottom.push_back(reach[static_cast<std::size_t>(cell)]);
        }
      }
      if (target_.function().get(e)) {
        if (bottom.empty()) {
          // No top-to-bottom connection exists in this grid at all; the
          // group is contradictory by construction. Assert it as such so
          // later probes of the same dims get the same instant answer.
          add({});
        } else {
          emitter.add(bottom);
        }
      } else {
        for (const sat::lit l : bottom) {
          add({~l});
        }
      }
    }

    result.encoding.num_vars =
        static_cast<std::uint64_t>(delta.num_vars() - vars_before);
    result.encoding.num_clauses = core_clauses + delta.num_clauses();
    const int first_group_var = solver_.num_vars();
    JANUS_CHECK(solver_.add_cnf(delta));
    for (sat::var v = first_group_var; v < solver_.num_vars(); ++v) {
      solver_.freeze(v);  // activation literal + reachability helpers
    }
    groups_.emplace(key, activation);
  }
  result.encode_seconds = encode_clock.seconds();

  std::vector<sat::lit> assumptions;
  assumptions.reserve(groups_.size());
  assumptions.push_back(activation);
  for (const auto& [other_key, other] : groups_) {
    if (other_key != key) {
      assumptions.push_back(~other);
    }
  }

  const session_solve_outcome solved = solve_session_step(
      solver_, assumptions, budget, options.sat_time_limit_s,
      options.conflict_budget, options.cancel);
  result.solver = solved.delta;
  result.solve_seconds = solved.seconds;

  switch (solved.verdict) {
    case sat::solve_result::unsat:
      result.status = lm_status::unrealizable;
      result.definitely_unrealizable = true;  // no heuristic rules involved
      break;
    case sat::solve_result::unknown:
      result.status = options.cancel.cancelled() ? lm_status::cancelled
                                                 : lm_status::unknown;
      break;
    case sat::solve_result::sat: {
      lattice::lattice_mapping mapping = decode_mapping(
          solver_, layout_, tl_, d, target_.num_vars(), /*dual_side=*/false);
      if (options.verify_model) {
        JANUS_CHECK_MSG(mapping.realizes(target_.function()),
                        "reachability model fails ground-truth verification");
      }
      result.mapping = std::move(mapping);
      result.status = lm_status::realizable;
      break;
    }
  }
  return result;
}

lm_result solve_lm_reachability(const target_spec& target, const dims& d,
                                const lm_options& options, deadline budget) {
  reach_session session(target, options.encode, options.solver);
  return session.probe(d, options, budget);
}

}  // namespace janus::lm
