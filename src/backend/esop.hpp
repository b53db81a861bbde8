// Exact ESOP synthesis — minimum-term exclusive-or-sum-of-products forms,
// after Riener et al., "Exact Synthesis of ESOP Forms" (arXiv 1807.11103).
//
// An ESOP is an XOR of product terms; unlike an SOP it can realize any
// function with remarkably few terms (parity needs n terms instead of
// 2^(n-1) cubes). The backend decides "is there an ESOP of f with ≤ k
// terms?" with one SAT instance per ladder and binary-searches k:
//
//   * Per term j and variable i, two selector variables p[j][i] / q[j][i]:
//     (1,0) = positive literal, (0,1) = complemented literal, (0,0) = the
//     variable is absent, and (1,1) — deliberately allowed — makes the term
//     x·x', the constant-0 product. Constant-0 terms are what make
//     realizability monotone in k (an unused slot contributes nothing), the
//     property the dichotomic ladder relies on; they are dropped at
//     extraction, so a converged ladder's extracted form has exactly the
//     minimal number of live terms.
//   * Per term j and minterm m, an auxiliary t[j][m] ⇔ (term j active and
//     its product covers m); per minterm, a Tseitin XOR chain constrains
//     the parity of the t column to f(m).
//   * The whole ladder runs on ONE incremental sat::solver (inprocessing
//     on): the encoding is built once for the largest candidate term count,
//     and each probe is a solve under assumptions over the per-term
//     activation selectors — learned clauses persist across the ladder,
//     the same session pattern the LM layer uses.
//
// The constructive upper bound — and the verified best-effort answer when
// the budget expires mid-ladder — is the PPRM (positive-polarity
// Reed–Muller) form obtained by the Möbius transform, which is itself an
// ESOP.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "bf/cube.hpp"
#include "bf/truth_table.hpp"

namespace janus::backend {

/// An XOR of product terms over `num_vars` inputs. The empty form is the
/// constant 0; a form holding only the tautology cube is the constant 1.
class esop_form {
 public:
  esop_form() = default;
  explicit esop_form(int num_vars, std::vector<bf::cube> terms = {});

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] int num_terms() const {
    return static_cast<int>(terms_.size());
  }
  [[nodiscard]] const std::vector<bf::cube>& terms() const { return terms_; }

  [[nodiscard]] bool eval(std::uint64_t minterm) const;
  [[nodiscard]] bf::truth_table to_truth_table() const;

  /// e.g. "ab ^ c'" with default variable names; "0" for the empty form.
  [[nodiscard]] std::string str() const;

 private:
  int num_vars_ = 0;
  std::vector<bf::cube> terms_;
};

/// The PPRM of `f`: the unique all-positive-polarity ESOP, via the Möbius
/// (butterfly) transform over the truth table. Always a valid ESOP of f, so
/// its term count is a constructive upper bound for the exact search.
[[nodiscard]] esop_form pprm(const bf::truth_table& f);

class esop_realization final : public realization {
 public:
  explicit esop_realization(esop_form form) : form_(std::move(form)) {}

  [[nodiscard]] int cost() const override { return form_.num_terms(); }
  [[nodiscard]] const char* cost_unit() const override { return "terms"; }
  [[nodiscard]] bool verify(const bf::truth_table& f) const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const esop_form& form() const { return form_; }

 private:
  esop_form form_;
};

[[nodiscard]] std::unique_ptr<synth_backend> make_esop_backend();

}  // namespace janus::backend
