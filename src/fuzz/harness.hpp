// Differential fuzzing harness: generate → run through independent
// configurations → compare.
//
// Every axis is one cell of the configuration matrix that must agree with
// its reference cell (docs/testing.md):
//
//   janus_vs_baselines   JANUS vs exact-[6] vs approx-[6]: every produced
//                        lattice must pass the BFS oracle; with no budget
//                        expiry, exact-[6] is a true optimum, so its size
//                        lower-bounds both others and JANUS's structural lb
//                        lower-bounds it.
//   session_vs_scratch   every definitive probe of a session ladder,
//                        re-solved by a fresh pool-less solve_lm, gets the
//                        same answer (frontier-pruned probes included), so
//                        the ladder picks the winner a one-shot ladder
//                        would.
//   inprocess_on_off     CDCL inprocessing on vs off: identical bounds and
//                        sizes (simplification is never an approximation).
//   jobs1_vs_jobsn       jobs=1 vs jobs=N: bit-identical results (the PR 1
//                        determinism contract).
//   cache_cold_warm      cold ladder → store → warm lookup (in-memory and
//                        through the persistent layer): the hit must be
//                        flagged, size-identical, and re-verified against
//                        lattice_mapping::realizes by the harness itself.
//   parser_consistency   PLA text (valid and adversarial) parsed twice must
//                        agree accept/reject and content; accepted files
//                        must survive a write→reparse round trip with
//                        identical per-output on-sets; the only exception
//                        the parser may throw is janus::check_error.
//   protocol             adversarial request scripts driven through an
//                        in-process janusd service engine: every submitted
//                        line draws exactly one response, every response
//                        parses as a v1 JSON object with a typed status,
//                        untouched-valid lines are never rejected as
//                        bad_request, `internal` errors are failures, and
//                        drain() must return.
//   portfolio            every registered synthesis backend run to
//                        completion on one table: each realization passes
//                        its engine's independent oracle, exact6
//                        lower-bounds the other lattice engines, the exact
//                        ESOP never exceeds its PPRM bound, a chain needs
//                        at least |support|-1 steps; budget expiries skip
//                        the case, never fail it.
//
// Cases are fully determined by (master seed, case index): each case draws
// from rng::fork streams only, so run_case replays any case in isolation —
// the property the repro records (repro.hpp) rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/repro.hpp"

namespace janus::lm {
class target_spec;
}  // namespace janus::lm
namespace janus::synth {
struct janus_options;
struct janus_result;
}  // namespace janus::synth

namespace janus::fuzz {

enum class axis_id : std::uint8_t {
  janus_vs_baselines,
  session_vs_scratch,
  inprocess_on_off,
  jobs1_vs_jobsn,
  cache_cold_warm,
  parser_consistency,
  protocol,
  portfolio,
};

[[nodiscard]] const char* axis_name(axis_id axis);
[[nodiscard]] std::optional<axis_id> axis_from_name(std::string_view name);
[[nodiscard]] const std::vector<axis_id>& all_axes();

enum class case_status : std::uint8_t {
  passed,   ///< configurations agreed
  skipped,  ///< a budget expired mid-case; agreement is not defined
  failed,   ///< discrepancy or unexpected exception
};

struct case_report {
  repro_record record;
  case_status status = case_status::passed;
  std::string message;  ///< what disagreed (failed) / why skipped
};

/// Execute one case deterministically. Independent of every other case: the
/// same (seed, case_index, axis, jobs) always reproduces the same inputs and
/// verdict. `jobs` is the N of the jobs1_vs_jobsn axis (ignored elsewhere).
[[nodiscard]] case_report run_case(std::uint64_t seed,
                                   std::uint64_t case_index, axis_id axis,
                                   int jobs = 4);

struct fuzz_options {
  std::uint64_t seed = 1;
  std::uint64_t max_cases = 0;    ///< 0 = unbounded (budget-driven)
  double budget_seconds = 0.0;    ///< 0 = unbounded (case-driven)
  std::vector<axis_id> axes = all_axes();  ///< rotated round-robin
  std::string failures_path = "fuzz-failures.txt";  ///< "" = don't write
  int jobs = 4;
  bool verbose = false;
};

struct fuzz_report {
  std::uint64_t executed = 0;
  std::uint64_t passed = 0;
  std::uint64_t skipped = 0;
  std::vector<case_report> failures;
  double seconds = 0.0;

  [[nodiscard]] bool clean() const { return failures.empty(); }
};

/// The replay check of the session_vs_scratch axis: re-solve every
/// definitive (realizable or unrealizable) probe of `run` — a ladder of
/// `target` under `options` — with a fresh solve_lm that has no session
/// pool, and describe the first probe whose answer differs. Frontier-pruned
/// probes are replayed too: their one-shot answer must be unrealizable.
[[nodiscard]] std::optional<std::string> replay_probes_one_shot(
    const lm::target_spec& target, const synth::janus_options& options,
    const synth::janus_result& run);

/// The fuzz loop: cases 0, 1, 2, … rotate over `options.axes` until either
/// bound (cases / budget) is hit. Discrepancies are appended to
/// `failures_path` as one-line repro records the moment they happen, so a
/// killed run still leaves its findings behind.
[[nodiscard]] fuzz_report run_fuzz(const fuzz_options& options);

}  // namespace janus::fuzz
