#include "backend/lattice_backend.hpp"

#include <algorithm>
#include <utility>

#include "synth/baselines.hpp"
#include "synth/janus.hpp"
#include "synth/janus_mf.hpp"
#include "util/check.hpp"

namespace janus::backend {

std::string lattice_realization::describe() const {
  return mapping_.grid().str() + " lattice (" +
         std::to_string(mapping_.size()) + " switches)";
}

std::string multi_lattice_realization::describe() const {
  return mapping_.grid().grid().str() + " lattice (" +
         std::to_string(mapping_.size()) + " switches)";
}

namespace {

/// Shared plumbing: derive the engine's janus_options from the request —
/// the deadline clips the engine budget, the cancel token and pool thread
/// through `exec`, and the shared caches ride along in `base`.
synth::janus_options engine_options(const backend_request& request) {
  synth::janus_options options = request.base;
  options.exec = request.exec;
  options.time_limit_s =
      std::min(options.time_limit_s, request.dl.remaining_seconds());
  return options;
}

/// Map an engine outcome onto the backend status contract. Every run returns
/// a verified solution; a cancelled run reports `cancelled` and a
/// budget-starved one keeps its solution as a `timeout` best-effort answer.
backend_status classify(const backend_request& request, bool hit_time_limit) {
  if (request.exec.cancel.cancelled()) {
    return backend_status::cancelled;
  }
  return hit_time_limit ? backend_status::timeout : backend_status::solved;
}

class janus_like_backend : public synth_backend {
 public:
  [[nodiscard]] backend_result run(const backend_request& request) override {
    stopwatch timer;
    backend_result result;
    result.backend = name();
    if (auto rejected =
            reject_unsupported(name(), capabilities(), request.target)) {
      return *std::move(rejected);
    }
    synth::janus_synthesizer engine(configure(engine_options(request)));
    const synth::janus_result run = engine.run(request.target);
    result.lower_bound = run.lower_bound;
    result.sat = run.sat_totals;
    result.realized = std::make_shared<lattice_realization>(*run.solution);
    JANUS_CHECK_MSG(result.realized->verify(request.target.function()),
                    "lattice backend: solution failed the BFS oracle");
    result.detail = run.ub_method + " " + run.solution_dims();
    result.status = classify(request, run.hit_time_limit);
    // A converged run is optimal exactly when the engine is exact: the
    // approximate flavors treat probe timeouts as UNSAT by design.
    result.optimal = result.status == backend_status::solved && exact();
    result.seconds = timer.seconds();
    return result;
  }

  [[nodiscard]] backend_capabilities capabilities() const override {
    return {.max_vars = bf::truth_table::max_vars, .exact = exact(),
            .cost_unit = "switches"};
  }

 protected:
  /// Specialize the shared options for this engine flavor.
  [[nodiscard]] virtual synth::janus_options configure(
      synth::janus_options options) const {
    return options;
  }
  [[nodiscard]] virtual bool exact() const { return false; }
};

class janus_backend final : public janus_like_backend {
 public:
  [[nodiscard]] const char* name() const override { return "janus"; }
};

class exact6_backend final : public janus_like_backend {
 public:
  [[nodiscard]] const char* name() const override { return "exact6"; }

 protected:
  [[nodiscard]] synth::janus_options configure(
      synth::janus_options options) const override {
    return synth::exact6_options(options);
  }
  [[nodiscard]] bool exact() const override { return true; }
};

class approx6_backend final : public janus_like_backend {
 public:
  [[nodiscard]] const char* name() const override { return "approx6"; }

 protected:
  [[nodiscard]] synth::janus_options configure(
      synth::janus_options options) const override {
    return synth::approx6_options(options);
  }
};

class janus_mf_backend final : public synth_backend {
 public:
  [[nodiscard]] const char* name() const override { return "janus-mf"; }

  [[nodiscard]] backend_capabilities capabilities() const override {
    return {.max_vars = bf::truth_table::max_vars, .exact = false,
            .cost_unit = "switches"};
  }

  [[nodiscard]] backend_result run(const backend_request& request) override {
    stopwatch timer;
    backend_result result;
    result.backend = name();
    if (auto rejected =
            reject_unsupported(name(), capabilities(), request.target)) {
      return *std::move(rejected);
    }
    const synth::janus_mf_result run =
        synth::run_janus_mf({request.target}, engine_options(request));
    result.realized = std::make_shared<multi_lattice_realization>(run.improved);
    JANUS_CHECK_MSG(result.realized->verify(request.target.function()),
                    "janus-mf backend: merge failed the BFS oracle");
    result.status = classify(request, run.hit_time_limit);
    result.seconds = timer.seconds();
    return result;
  }
};

}  // namespace

std::unique_ptr<synth_backend> make_janus_backend() {
  return std::make_unique<janus_backend>();
}
std::unique_ptr<synth_backend> make_janus_mf_backend() {
  return std::make_unique<janus_mf_backend>();
}
std::unique_ptr<synth_backend> make_exact6_backend() {
  return std::make_unique<exact6_backend>();
}
std::unique_ptr<synth_backend> make_approx6_backend() {
  return std::make_unique<approx6_backend>();
}

}  // namespace janus::backend
