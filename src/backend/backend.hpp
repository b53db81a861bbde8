// The synthesis-backend interface: one contract for every engine that can
// turn a target function into a verified realization.
//
// The repo hosts several synthesis formulations — the paper's JANUS lattice
// flow and its exact-[6]/approx-[6] baselines, JANUS-MF, an exact ESOP
// engine (after Riener et al., "Exact Synthesis of ESOP Forms") and a
// percy-style Boolean-chain engine (after Éen/Knuth) — each minimizing a
// different cost (lattice switches vs ESOP terms vs chain steps). A
// `synth_backend` hides the formulation behind a common run() so the
// portfolio layer (synth/portfolio.hpp), the CLI, the service and the fuzz
// harness can drive any engine, or race all of them, through one interface.
//
// The contract every backend implements (tests/test_backend.cpp asserts it
// over every registered backend):
//   * run() honors `backend_request::dl` — it returns promptly with status
//     `timeout` once the deadline expires — and `backend_request::exec.cancel`
//     — an external cancellation yields status `cancelled`.
//   * Cancellation is non-destructive: the instance stays reusable and a
//     later run() with a clean token succeeds.
//   * A returned realization is ALWAYS verified by the backend against
//     `target.function()` through the realization's own independent oracle
//     (lattice BFS evaluation, ESOP XOR re-evaluation, chain re-simulation)
//     before it is reported; `backend_result::sat` carries the SAT counters
//     the run spent so callers can aggregate per-backend work.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bf/truth_table.hpp"
#include "exec/exec.hpp"
#include "lm/target.hpp"
#include "sat/solver.hpp"
#include "synth/janus.hpp"
#include "util/timer.hpp"

namespace janus::backend {

/// What a backend can take on and what its cost counts.
struct backend_capabilities {
  int max_vars = 6;            ///< largest supported input count
  bool exact = false;          ///< converged answers are optimal in its cost
  const char* cost_unit = "";  ///< "switches" / "terms" / "steps"
};

enum class backend_status : std::uint8_t {
  solved,     ///< definitive: a verified realization, search converged
  timeout,    ///< the deadline expired; `realized` may hold a best-effort form
  cancelled,  ///< the cancel token fired (e.g. a racing sibling answered)
  failed,     ///< the engine cannot handle this target (detail says why)
};

[[nodiscard]] const char* backend_status_name(backend_status status);

/// A backend-specific realization that can prove itself correct. verify() is
/// the backend's independent oracle: it re-evaluates the artifact over the
/// full truth table without going through the SAT model that produced it.
class realization {
 public:
  virtual ~realization() = default;

  [[nodiscard]] virtual int cost() const = 0;
  [[nodiscard]] virtual const char* cost_unit() const = 0;
  [[nodiscard]] virtual bool verify(const bf::truth_table& f) const = 0;
  /// Short human-readable form ("4x3 lattice", "3 terms: ab ^ ac ^ bc").
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// One synthesis job. The target is copied in so a request outlives whatever
/// produced it; `base` carries the shared tuning (SAT options, budgets,
/// solution / lattice-info caches) that the lattice engines consume and the
/// SAT-native engines read solver options from.
struct backend_request {
  lm::target_spec target;
  deadline dl = deadline::never();  ///< per-target wall-clock budget
  exec::context exec;               ///< cancellation (+ optional shared pool)
  synth::janus_options base;        ///< shared tuning and caches
};

struct backend_result {
  std::string backend;  ///< registered name of the engine that produced this
  backend_status status = backend_status::failed;
  /// Verified realization; present on `solved`, and may accompany `timeout`
  /// as a verified best-effort answer (e.g. the constructive upper bound).
  std::shared_ptr<const realization> realized;
  /// Search converged: `cost()` is optimal under this backend's cost model.
  bool optimal = false;
  int lower_bound = 0;  ///< backend's own lower bound on its cost (0 = none)
  double seconds = 0.0;
  sat::solver_stats sat;  ///< counters summed over every solver of the run
  std::string detail;     ///< method / dims / reason when nothing realized

  /// A definitive answer for racing purposes: the backend converged with a
  /// verified realization (not a best-effort artifact under an expired
  /// budget).
  [[nodiscard]] bool definitive() const {
    return status == backend_status::solved && realized != nullptr;
  }
  [[nodiscard]] int cost() const { return realized ? realized->cost() : 0; }
};

class synth_backend {
 public:
  virtual ~synth_backend() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual backend_capabilities capabilities() const = 0;

  /// Synthesize one target. One run() at a time per instance; the instance
  /// stays reusable after any outcome (including cancellation).
  [[nodiscard]] virtual backend_result run(const backend_request& request) = 0;
};

/// Registered backend names, in the canonical priority order the portfolio
/// uses for deterministic winner tie-breaks: janus, janus-mf, exact6,
/// approx6, esop, chain.
[[nodiscard]] const std::vector<std::string>& backend_names();

[[nodiscard]] bool is_backend_name(std::string_view name);

/// Instantiate a registered backend; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<synth_backend> make_backend(
    std::string_view name);

/// Shared guard: a `failed` result when the target is outside `caps`
/// (too many inputs), else nullopt. Backends call this first so "too wide
/// for this engine" is always a typed, sound reason rather than a crash.
[[nodiscard]] std::optional<backend_result> reject_unsupported(
    const char* backend, const backend_capabilities& caps,
    const lm::target_spec& target);

}  // namespace janus::backend
