#include "lm/reach_encoding.hpp"

#include <vector>

#include "util/check.hpp"

namespace janus::lm {

using lattice::dims;

lm_result solve_lm_reachability(const target_spec& target, const dims& d,
                                const lm_options& options, deadline budget) {
  lm_result result;

  // The reachability TL always offers every literal of every variable (the
  // ablation deliberately skips the ISOP filtering of the path encoding).
  lm_encode_options encode = options.encode;
  encode.tl_isop_literals_only = false;
  const std::vector<lattice::cell_assign> tl =
      build_target_literals(target, /*dual_side=*/false, encode);

  // Mapping/value core: the path encoding's exactly-one and link clauses.
  sat::cnf f;
  lm_var_layout layout;
  layout.entries = support_entries(target.function(), tl);
  const std::size_t entries = layout.entries.size();
  lm_emitter emitter(target, /*info=*/nullptr, /*dual_side=*/false, encode,
                     tl, layout, f);
  for (int cell = 0; cell < d.size(); ++cell) {
    layout.map_base.push_back(f.new_vars(static_cast<int>(tl.size())));
    layout.val_base.push_back(f.new_vars(static_cast<int>(entries)));
    emitter.emit_exactly_one(cell);
    for (std::size_t i = 0; i < entries; ++i) {
      emitter.emit_links(cell, i);
    }
  }
  const auto add = [&emitter](std::initializer_list<sat::lit> clause) {
    emitter.add(clause);
  };

  const int levels = d.size();  // BFS converges within #cells rounds
  for (std::size_t i = 0; i < entries; ++i) {
    const auto val = [&](int cell) { return layout.val_lit(cell, i); };

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
          const sat::lit rk = sat::lit::make(f.new_var());
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
    if (target.function().get(layout.entries[i])) {
      // An empty `bottom` (no top-to-bottom connection at all) becomes the
      // empty clause, and add_cnf below reports the contradiction.
      emitter.add(bottom);
    } else {
      for (const sat::lit l : bottom) {
        add({~l});
      }
    }
  }

  result.encoding.num_vars = static_cast<std::uint64_t>(f.num_vars());
  result.encoding.num_clauses = f.num_clauses();

  sat::solver s(options.solver);
  sat::solve_result verdict = sat::solve_result::unsat;
  if (s.add_cnf(f)) {
    s.set_deadline(budget.tightened(options.sat_time_limit_s));
    s.set_conflict_budget(options.conflict_budget);
    s.set_stop_flag(options.cancel.flag());
    verdict = s.solve();
  }
  result.solver = s.stats();

  switch (verdict) {
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
          s, layout, tl, d, target.num_vars(), /*dual_side=*/false);
      JANUS_CHECK_MSG(mapping.realizes(target.function()),
                      "reachability model fails ground-truth verification");
      result.mapping = std::move(mapping);
      result.status = lm_status::realizable;
      break;
    }
  }
  return result;
}

}  // namespace janus::lm
