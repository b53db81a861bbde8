// SAT encoding of the lattice-mapping (LM) problem — Section III-A.
//
// Given a target f and an m×n lattice, the encoder emits a CNF over:
//   * mapping variables  mv[cell][j]   — cell is wired to target-literal j,
//   * value variables    val[cell][e]  — the cell's control value at truth
//                                        table entry e (the paper's lv_tte),
//                                        one per distinct entry (see below),
//   * per-ON-entry path selectors, and optional rule/auxiliary variables.
//
// Clause groups (mirroring the paper):
//   1. exactly-one mapping per cell + mapping→value link clauses;
//   2. OFF entries: every irredundant path must contain a 0 cell;
//      ON entries: some path has all cells 1 (selector + implications),
//      plus the two helper "facts" (a 1 per row; a vertical 1-pair per
//      consecutive row boundary);
//   3. degree rules: products of maximal degree must be realized by
//      maximal-length paths; products with more than 5 literals (the
//      paper's threshold) by paths longer than 5.
//
// The constraint families split along a line the incremental session
// (lm_session.hpp) exploits: group 1 depends only on the target and the cell
// COUNT — not on lattice geometry — so it forms a *shared core* that one
// persistent solver keeps across the whole dichotomic ladder. Groups 2 and 3
// depend on the path structure of one concrete dims and are emitted with an
// activation literal prepended (a → clause), so a single solver holds many
// dimension groups and activates exactly one per solve(assumptions) call.
// The scratch encoder (lm_encoder) emits the same families unguarded into a
// standalone CNF. Both drive the shared `lm_emitter` below, so the clause
// shapes cannot drift apart.
//
// The same machinery poses the dual problem (realize f^D by the 8-connected
// left–right paths); a model found there converts to a primal realization by
// keeping literals and flipping constants (see DESIGN.md §6 invariants).
//
// `strict_product_rules` reproduces the *approximate method of [6]*: every
// target product must be realized by a dedicated path using only that
// product's literals — a genuine restriction that can make realizable
// instances UNSAT, which is exactly the behavior Table II shows for [6]-approx.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lattice/mapping.hpp"
#include "lm/lattice_info.hpp"
#include "lm/target.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace janus::lm {

struct lm_encode_options {
  bool use_degree_rules = true;
  bool use_helper_facts = true;
  bool strict_product_rules = false;   // approx-[6] baseline behavior
  bool tl_isop_literals_only = true;   // TL from the ISOP (paper) vs all literals
};

/// Statistics of a built encoding (reported by the ablation bench).
struct lm_encoding_stats {
  std::uint64_t num_vars = 0;
  std::uint64_t num_clauses = 0;
  std::uint64_t off_entry_clauses = 0;
  std::uint64_t on_entry_clauses = 0;
  std::uint64_t link_clauses = 0;
  std::uint64_t rule_clauses = 0;
  [[nodiscard]] std::uint64_t complexity() const {
    return num_vars * num_clauses;
  }
};

/// The target-literal set TL of one problem side: constants 0 and 1 first,
/// then (per variable, ascending) the positive and negative literal — each
/// included only when it occurs in the side's ISOP under
/// `tl_isop_literals_only`, unconditionally otherwise. Both the scratch
/// encoder and the incremental sessions build TL through this function, so
/// index j means the same wiring everywhere.
[[nodiscard]] std::vector<lattice::cell_assign> build_target_literals(
    const target_spec& target, bool dual_side,
    const lm_encode_options& options);

/// The distinct truth-table entries of one problem side, ascending: every
/// assignment to the variables some TL literal mentions, with all other bits
/// zero. Entries that agree on those variables get equal cell values from
/// the link clauses and equal side-function values (checked here: the side
/// function must depend on nothing else), so one value variable per
/// distinct entry encodes the same problem. A full support gives the
/// identity table.
[[nodiscard]] std::vector<std::uint64_t> support_entries(
    const bf::truth_table& side_function,
    const std::vector<lattice::cell_assign>& tl);

/// Where the mv/val variables of one problem side live. The scratch encoder
/// lays both out as two contiguous blocks; the incremental session grows one
/// block per cell slot as the ladder demands larger lattices. The emitter
/// addresses variables only through this table, making it layout-agnostic.
struct lm_var_layout {
  std::vector<sat::var> map_base;  ///< cell -> first of its |TL| mapping vars
  std::vector<sat::var> val_base;  ///< cell -> first of its value vars
  sat::var val_stride = 1;  ///< distance between consecutive entries of a cell
  /// Entry index -> representative minterm (support_entries).
  std::vector<std::uint64_t> entries;

  [[nodiscard]] sat::lit map_lit(int cell, std::size_t tl_index) const {
    return sat::lit::make(map_base[static_cast<std::size_t>(cell)] +
                          static_cast<sat::var>(tl_index));
  }
  /// Value variable of `cell` at the i-th distinct entry.
  [[nodiscard]] sat::lit val_lit(int cell, std::size_t i) const {
    return sat::lit::make(val_base[static_cast<std::size_t>(cell)] +
                          static_cast<sat::var>(i) * val_stride);
  }
  [[nodiscard]] int num_cells() const {
    return static_cast<int>(map_base.size());
  }
};

/// Emits the clause families of one problem side into a cnf. Shared by the
/// scratch encoder (no guards) and the incremental session (dims-dependent
/// families guarded by an activation literal): `set_activation(a)` makes
/// every subsequently emitted clause conditional on a (the clause gets ~a
/// prepended), so a persistent solver switches whole dimension groups on and
/// off per solve(assumptions) call. The mapping-core emitters ignore the
/// guard by contract — their clauses are dims-independent and must stay
/// unconditionally true.
class lm_emitter {
 public:
  /// `info` may be null when only the geometry-free core emitters
  /// (emit_exactly_one / emit_links) will be used — the reachability
  /// encoding shares the core without enumerating any path list.
  lm_emitter(const target_spec& target, const lattice_info* info,
             bool dual_side, const lm_encode_options& options,
             const std::vector<lattice::cell_assign>& tl,
             const lm_var_layout& layout, sat::cnf& out);

  /// Guard for subsequent dims-dependent clauses; lit_undef disables.
  void set_activation(sat::lit activation) { activation_ = activation; }

  // --- shared core (never guarded) ---------------------------------------
  /// Exactly-one wiring for one cell.
  void emit_exactly_one(int cell);
  /// Link clauses for one (cell, entry index): the wiring forces the value.
  void emit_links(int cell, std::size_t i);

  // --- dims-dependent families (guarded when an activation is set) --------
  /// OFF entry: every irredundant path broken; ON entry: selector clauses
  /// plus the helper facts.
  void emit_entry(std::size_t i);
  /// Degree rules or strict [6]-approx rules, per the active options.
  void emit_rules();

  /// Emit one clause under the current activation (the single guard
  /// implementation — extensions such as the reachability encoding emit
  /// their own clauses through here so guard semantics cannot drift between
  /// encodings).
  void add(std::span<const sat::lit> lits);
  void add(std::initializer_list<sat::lit> lits);

  [[nodiscard]] const lm_encoding_stats& stats() const { return stats_; }

 private:
  void add_realization_rule(const bf::cube& p,
                            const std::vector<lattice::path_cells>& paths,
                            bool allow_one);
  void emit_degree_rules();
  void emit_strict_rules();

  const target_spec& target_;
  const lattice_info* info_;  ///< null = core-only emission
  bool dual_side_;
  const lm_encode_options& options_;
  const std::vector<lattice::cell_assign>& tl_;
  const lm_var_layout& layout_;
  sat::cnf& out_;
  sat::lit activation_ = sat::lit_undef;
  lm_encoding_stats stats_;

  // Side-resolved views.
  const bf::truth_table* side_function_ = nullptr;
  const bf::cover* side_sop_ = nullptr;
  const lattice::path_list* side_paths_ = nullptr;

  std::vector<sat::lit> clause_buffer_;
};

/// One side (primal or dual) of the LM problem, encoded to CNF from scratch
/// (the non-incremental path: fresh formula, fresh solver per probe).
class lm_encoder {
 public:
  /// `dual_side` = false: realize target.function() via 4-connected
  /// top–bottom paths. true: realize target.dual_function() via 8-connected
  /// left–right paths (converted back to a primal mapping on decode).
  lm_encoder(const target_spec& target, const lattice_info& info,
             bool dual_side, lm_encode_options options);

  [[nodiscard]] const sat::cnf& formula() const { return formula_; }
  [[nodiscard]] const lm_encoding_stats& stats() const { return stats_; }
  [[nodiscard]] bool dual_side() const { return dual_side_; }

  /// Extract the primal lattice mapping from a satisfying assignment.
  [[nodiscard]] lattice::lattice_mapping decode(const sat::solver& s) const;

 private:
  void build();

  const target_spec& target_;
  const lattice_info& info_;
  bool dual_side_;
  lm_encode_options options_;

  std::vector<lattice::cell_assign> tl_;  // target literal set (incl. 0 and 1)
  lm_var_layout layout_;
  sat::cnf formula_;
  lm_encoding_stats stats_;
};

/// Decode the primal lattice mapping from a model, through a layout (shared
/// by lm_encoder::decode and the incremental session).
[[nodiscard]] lattice::lattice_mapping decode_mapping(
    const sat::solver& s, const lm_var_layout& layout,
    const std::vector<lattice::cell_assign>& tl, const lattice::dims& d,
    int num_vars, bool dual_side);

/// Cheap a-priori estimate of the clause count of one problem side, computed
/// from entry/path counts without building anything. solve_lm uses it to skip
/// candidates whose encoding would not fit the configured budget (the same
/// give-up behavior the paper's per-call time limit induces, but before
/// burning minutes and gigabytes on CNF construction). It counts all 2^n
/// entries, so neither the side choice nor the skips see the entry table.
[[nodiscard]] std::uint64_t estimate_encoding_clauses(
    const target_spec& target, const lattice_info& info, bool dual_side,
    const lm_encode_options& options);

}  // namespace janus::lm
