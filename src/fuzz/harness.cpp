#include "fuzz/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>

#include "backend/backend.hpp"
#include "backend/esop.hpp"
#include "bf/pla.hpp"
#include "cache/solution_cache.hpp"
#include "fuzz/generators.hpp"
#include "service/json_value.hpp"
#include "service/service.hpp"
#include "synth/baselines.hpp"
#include "synth/batch.hpp"
#include "synth/janus.hpp"
#include "synth/portfolio.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace janus::fuzz {

namespace {

struct axis_outcome {
  case_status status = case_status::passed;
  std::string message;

  static axis_outcome fail(std::string why) {
    return {case_status::failed, std::move(why)};
  }
  static axis_outcome skip(std::string why) {
    return {case_status::skipped, std::move(why)};
  }
};

/// Budgets far above what the generated instances (≤ 5 inputs) ever need —
/// a budget expiry downgrades the case to `skipped`, so generous limits keep
/// the skip rate near zero without risking wall-clock blowups.
synth::janus_options tiny_options() {
  synth::janus_options o;
  o.time_limit_s = 120.0;
  o.lm.sat_time_limit_s = 20.0;
  return o;
}

/// True when the run answered every probe definitively: timeouts are the
/// designed approximation and make cross-configuration comparison undefined.
bool ladder_exact(const synth::janus_result& r) {
  if (r.hit_time_limit) {
    return false;
  }
  for (const synth::probe_record& p : r.probes) {
    if (p.status == lm::lm_status::unknown ||
        p.status == lm::lm_status::skipped) {
      return false;
    }
  }
  return true;
}

/// `jobs` > 1 runs the target as a one-target synthesize_batch at that
/// width, whose pool the probe fan-out and the DS children share.
synth::janus_result run_engine(const lm::target_spec& target,
                               const synth::janus_options& options,
                               int jobs = 1) {
  if (jobs <= 1) {
    return synth::janus_synthesizer(options).run(target);
  }
  synth::batch_options batch;
  batch.base = options;
  batch.jobs = jobs;
  return std::move(
      synth::synthesize_batch(std::span(&target, 1), batch).results.front());
}

/// Oracle check every configuration must pass regardless of agreement: the
/// reported lattice realizes the target, by the BFS evaluator that shares no
/// code with the SAT pipeline.
std::optional<std::string> check_solution(const synth::janus_result& r,
                                          const bf::truth_table& f,
                                          const char* config) {
  if (!r.solution.has_value()) {
    return std::string(config) + ": no solution produced";
  }
  if (!r.solution->realizes(f)) {
    return std::string(config) + ": solution fails the BFS oracle";
  }
  if (r.solution->size() < r.lower_bound) {
    return std::string(config) + ": solution below the reported lower bound";
  }
  return std::nullopt;
}

std::string describe(const synth::janus_result& r) {
  return "size=" + std::to_string(r.solution_size()) +
         " lb=" + std::to_string(r.lower_bound) +
         " nub=" + std::to_string(r.new_upper_bound) + " dims=" +
         r.solution_dims();
}

/// Two-configuration equality axis (inprocessing, jobs): run both
/// in a shuffled order — results must not depend on execution order — and
/// demand bit-identical bounds and sizes. `b_jobs` is b's width (run_engine).
axis_outcome run_equality_axis(const lm::target_spec& target,
                               const bf::truth_table& f,
                               const synth::janus_options& a, const char* an,
                               const synth::janus_options& b, const char* bn,
                               rng& shuffle, int b_jobs = 1) {
  synth::janus_result ra;
  synth::janus_result rb;
  if (shuffle.next_bool()) {
    rb = run_engine(target, b, b_jobs);
    ra = run_engine(target, a);
  } else {
    ra = run_engine(target, a);
    rb = run_engine(target, b, b_jobs);
  }
  if (auto err = check_solution(ra, f, an)) {
    return axis_outcome::fail(*err);
  }
  if (auto err = check_solution(rb, f, bn)) {
    return axis_outcome::fail(*err);
  }
  if (!ladder_exact(ra) || !ladder_exact(rb)) {
    return axis_outcome::skip("budget expired mid-ladder");
  }
  if (ra.solution_size() != rb.solution_size() ||
      ra.lower_bound != rb.lower_bound ||
      ra.new_upper_bound != rb.new_upper_bound ||
      ra.old_upper_bound != rb.old_upper_bound) {
    return axis_outcome::fail(std::string(an) + " [" + describe(ra) + "] vs " +
                              bn + " [" + describe(rb) + "]");
  }
  return {};
}

axis_outcome axis_janus_vs_baselines(rng& gen, rng& shuffle) {
  const bf::truth_table f = random_truth_table(gen, 1, 4);
  const lm::target_spec target = lm::target_spec::from_function(f, "fuzz");
  const synth::janus_options base = tiny_options();

  // Order-shuffle the three engines; they share no state.
  synth::janus_result janus;
  synth::janus_result exact;
  synth::janus_result approx;
  const std::uint64_t order = shuffle.next_below(3);
  for (int slot = 0; slot < 3; ++slot) {
    switch ((order + static_cast<std::uint64_t>(slot)) % 3) {
      case 0: janus = run_engine(target, base); break;
      case 1: exact = run_engine(target, synth::exact6_options(base)); break;
      case 2: approx = run_engine(target, synth::approx6_options(base)); break;
    }
  }
  if (auto err = check_solution(janus, f, "janus")) {
    return axis_outcome::fail(*err);
  }
  if (auto err = check_solution(exact, f, "exact6")) {
    return axis_outcome::fail(*err);
  }
  if (auto err = check_solution(approx, f, "approx6")) {
    return axis_outcome::fail(*err);
  }
  if (!ladder_exact(janus) || !ladder_exact(exact) || !ladder_exact(approx)) {
    return axis_outcome::skip("budget expired mid-ladder");
  }
  // exact-[6] is a true optimum here (complete encoding, no expired budget):
  // nothing may beat it, and JANUS's structural lower bound must hold for it.
  if (janus.solution_size() < exact.solution_size()) {
    return axis_outcome::fail("janus beat exact6: janus [" + describe(janus) +
                              "] vs exact6 [" + describe(exact) + "]");
  }
  if (approx.solution_size() < exact.solution_size()) {
    return axis_outcome::fail("approx6 beat exact6: approx6 [" +
                              describe(approx) + "] vs exact6 [" +
                              describe(exact) + "]");
  }
  if (janus.lower_bound > exact.solution_size()) {
    return axis_outcome::fail(
        "structural lower bound exceeds the exact optimum: janus [" +
        describe(janus) + "] vs exact6 [" + describe(exact) + "]");
  }
  return {};
}

axis_outcome axis_session_vs_scratch(rng& gen, rng& /*shuffle*/) {
  const bf::truth_table f = random_truth_table(gen, 1, 4);
  const lm::target_spec target = lm::target_spec::from_function(f, "fuzz");
  const synth::janus_options options = tiny_options();
  const synth::janus_result run = run_engine(target, options);
  if (auto err = check_solution(run, f, "session")) {
    return axis_outcome::fail(*err);
  }
  if (!ladder_exact(run)) {
    return axis_outcome::skip("budget expired mid-ladder");
  }
  if (auto err = replay_probes_one_shot(target, options, run)) {
    return axis_outcome::fail(*err);
  }
  return {};
}

axis_outcome axis_inprocess_on_off(rng& gen, rng& shuffle) {
  const bf::truth_table f = random_truth_table(gen, 1, 4);
  const lm::target_spec target = lm::target_spec::from_function(f, "fuzz");
  synth::janus_options off = tiny_options();
  off.lm.solver.inprocess = false;
  synth::janus_options on = tiny_options();
  on.lm.solver.inprocess = true;
  return run_equality_axis(target, f, off, "inprocess_off", on,
                           "inprocess_on", shuffle);
}

axis_outcome axis_jobs1_vs_jobsn(rng& gen, rng& shuffle, int jobs) {
  const bf::truth_table f = random_truth_table(gen, 1, 4);
  const lm::target_spec target = lm::target_spec::from_function(f, "fuzz");
  return run_equality_axis(target, f, tiny_options(), "jobs1", tiny_options(),
                           "jobsN", shuffle, jobs > 1 ? jobs : 4);
}

axis_outcome axis_cache_cold_warm(rng& gen, rng& /*shuffle*/) {
  const bf::truth_table f = random_truth_table(gen, 1, 5);
  const lm::target_spec target = lm::target_spec::from_function(f, "fuzz");

  cache::solution_cache store;
  synth::janus_options options = tiny_options();
  options.solutions = &store;

  const synth::janus_result cold = run_engine(target, options);
  if (auto err = check_solution(cold, f, "cache_cold")) {
    return axis_outcome::fail(*err);
  }
  if (cold.from_cache) {
    return axis_outcome::fail("cold run reported from_cache on a fresh store");
  }
  if (!ladder_exact(cold)) {
    return axis_outcome::skip("budget expired mid-ladder");
  }
  if (target.is_constant()) {
    // Constants bypass the store by design; nothing further to compare.
    return {};
  }

  // Warm: a second engine over the same store must answer from it.
  const synth::janus_result warm = run_engine(target, options);
  if (auto err = check_solution(warm, f, "cache_warm")) {
    return axis_outcome::fail(*err);
  }
  if (!warm.from_cache) {
    return axis_outcome::fail("warm run missed the store");
  }
  if (warm.solution_size() != cold.solution_size()) {
    return axis_outcome::fail("warm size " +
                              std::to_string(warm.solution_size()) +
                              " != cold size " +
                              std::to_string(cold.solution_size()));
  }
  // The harness's own oracle re-check of the round-tripped hit, independent
  // of the one inside solution_cache::lookup.
  if (!warm.solution->realizes(f)) {
    return axis_outcome::fail("warm hit fails the BFS oracle");
  }

  // Persistent layer: serialize, reload into a fresh store, re-lookup,
  // re-verify.
  std::stringstream file;
  store.save(file);
  cache::solution_cache reloaded;
  reloaded.load(file);
  const std::optional<cache::cached_solution> hit = reloaded.lookup(f);
  if (!hit.has_value()) {
    return axis_outcome::fail("persisted store lost the entry");
  }
  if (hit->mapping.size() != cold.solution_size()) {
    return axis_outcome::fail(
        "persisted hit size " + std::to_string(hit->mapping.size()) +
        " != cold size " + std::to_string(cold.solution_size()));
  }
  if (!hit->mapping.realizes(f)) {
    return axis_outcome::fail("persisted hit fails the BFS oracle");
  }
  return {};
}

/// Stable content fingerprint of a parse attempt: either the serialized file
/// (plus names, which write_pla only emits when present) or the rejection
/// message.
std::string parse_fingerprint(const std::string& text, bool& accepted) {
  try {
    const bf::pla_file file = bf::read_pla_string(text);
    std::ostringstream out;
    bf::write_pla(out, file);
    accepted = true;
    return out.str();
  } catch (const check_error& e) {
    accepted = false;
    return std::string("rejected: ") + e.what();
  }
}

axis_outcome axis_parser_consistency(rng& gen, rng& mutation) {
  const bool adversarial = gen.next_bool(0.5);
  rng base = gen.fork(0);
  const std::string text = adversarial
                               ? random_malformed_pla(base, mutation)
                               : random_pla_text(base);

  // Accept/reject (and content / message) must be identical across parses;
  // anything but check_error escapes to run_case and fails the case.
  bool accepted1 = false;
  bool accepted2 = false;
  const std::string fp1 = parse_fingerprint(text, accepted1);
  const std::string fp2 = parse_fingerprint(text, accepted2);
  if (accepted1 != accepted2 || fp1 != fp2) {
    return axis_outcome::fail("parse is not deterministic: [" + fp1 +
                              "] vs [" + fp2 + "]");
  }
  if (!adversarial && !accepted1) {
    return axis_outcome::fail("generator-valid PLA rejected: " + fp1);
  }
  if (!accepted1) {
    return {};
  }

  // Semantic write→reparse round trip: the writer's output must parse and
  // mean the same function, output by output.
  const bf::pla_file parsed = bf::read_pla_string(text);
  std::ostringstream written;
  bf::write_pla(written, parsed);
  const bf::pla_file reparsed = bf::read_pla_string(written.str());
  if (reparsed.num_inputs != parsed.num_inputs ||
      reparsed.num_outputs != parsed.num_outputs) {
    return axis_outcome::fail("write→reparse changed the header");
  }
  for (int o = 0; o < parsed.num_outputs; ++o) {
    if (parsed.onset(o) != reparsed.onset(o) ||
        parsed.dc_cover(o).to_truth_table() !=
            reparsed.dc_cover(o).to_truth_table()) {
      return axis_outcome::fail("write→reparse changed output " +
                                std::to_string(o));
    }
  }
  return {};
}

/// Drive a generated request script — valid lines interleaved with
/// adversarial ones — through an in-process service engine with tight limits
/// and tiny budgets. Everything submit_line can be made to do wrong is a
/// failure here: a missing or extra response, a response that is not a v1
/// JSON object with a typed status, an `internal` error escaping, or a
/// known-valid line bounced as bad_request. drain() returning at all is part
/// of the contract (the grace deadline cancels anything still running).
axis_outcome axis_protocol(rng& gen, rng& mutation) {
  const request_script script = random_request_lines(gen, mutation);

  service::service_options options;
  options.workers = 2;
  options.queue_capacity = 4;  // small on purpose: overloaded is a real path
  options.default_deadline_s = 10.0;
  options.drain_grace_s = 5.0;
  options.limits.max_line_bytes = 2048;
  options.limits.max_vars = 4;
  options.limits.max_outputs = 4;
  options.limits.max_deadline_s = 10.0;
  options.base.time_limit_s = 10.0;
  options.base.lm.sat_time_limit_s = 5.0;

  util::mutex mutex;
  std::vector<std::string> responses;
  {
    service::synthesis_service svc(options);
    for (const std::string& line : script.lines) {
      svc.submit_line(1, line, [&](std::string response) {
        util::lock_guard lock(mutex);
        responses.push_back(std::move(response));
      });
    }
    svc.drain(options.drain_grace_s);  // joins the workers: no more responses
  }

  if (responses.size() != script.lines.size()) {
    return axis_outcome::fail("submitted " +
                              std::to_string(script.lines.size()) +
                              " lines, got " +
                              std::to_string(responses.size()) + " responses");
  }

  std::set<std::string> valid_ids;
  for (std::size_t k = 0; k < script.lines.size(); ++k) {
    if (script.known_valid[k]) {
      valid_ids.insert("q" + std::to_string(k));
    }
  }

  for (const std::string& response : responses) {
    const service::json_parse_result parsed = service::json_parse(response);
    if (!parsed.value.has_value()) {
      return axis_outcome::fail("response is not JSON (" + parsed.error +
                                "): " + response);
    }
    const service::json_value& doc = *parsed.value;
    if (!doc.is_object()) {
      return axis_outcome::fail("response is not an object: " + response);
    }
    const service::json_value* version = doc.find("v");
    if (version == nullptr || !version->is_number() || version->number != 1) {
      return axis_outcome::fail("response missing v:1: " + response);
    }
    const service::json_value* status = doc.find("status");
    if (status == nullptr || !status->is_string()) {
      return axis_outcome::fail("response missing status: " + response);
    }
    if (status->string != "ok" && status->string != "timeout" &&
        status->string != "error") {
      return axis_outcome::fail("unknown status '" + status->string +
                                "': " + response);
    }
    if (status->string != "error") {
      continue;
    }
    const service::json_value* code = doc.find("error");
    if (code == nullptr || !code->is_string()) {
      return axis_outcome::fail("error response missing code: " + response);
    }
    if (code->string == "internal") {
      return axis_outcome::fail("internal error escaped: " + response);
    }
    if (code->string != "bad_request" && code->string != "overloaded" &&
        code->string != "shutting_down") {
      return axis_outcome::fail("unknown error code '" + code->string +
                                "': " + response);
    }
    const service::json_value* id = doc.find("id");
    if (code->string == "bad_request" && id != nullptr && id->is_string() &&
        valid_ids.count(id->string) != 0) {
      return axis_outcome::fail("valid line rejected as bad_request: " +
                                response);
    }
  }
  return {};
}

/// All registered synthesis backends run to completion (compare mode, no
/// racing — racing makes which entries finish timing-dependent) on one random
/// table. Every realization must pass its engine's independent oracle, and
/// the cost orderings that hold by construction must hold in the output:
/// exact6 lower-bounds the other lattice engines, the exact ESOP ladder never
/// exceeds the PPRM it starts from, and a Boolean chain needs at least
/// |support|-1 steps. Entries that hit the (generous) budget downgrade the
/// case to skipped, never failed.
axis_outcome axis_portfolio(rng& gen, rng& shuffle) {
  const bf::truth_table f = random_truth_table(gen, 1, 4);
  const lm::target_spec target = lm::target_spec::from_function(f, "fuzz");

  // Present the backends in a shuffled order: compare-mode results must not
  // depend on the order the engines run in.
  std::vector<std::string> names = backend::backend_names();
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[shuffle.next_below(i)]);
  }

  synth::portfolio_options options;
  options.backends = names;
  options.base = tiny_options();
  options.race = false;
  const synth::portfolio_result p =
      run_portfolio(target, options, deadline::in_seconds(120.0));

  std::map<std::string, const backend::backend_result*> by_name;
  for (const backend::backend_result& entry : p.entries) {
    if (entry.status == backend::backend_status::timeout ||
        entry.status == backend::backend_status::cancelled) {
      return axis_outcome::skip(entry.backend + ": budget expired");
    }
    if (entry.status != backend::backend_status::solved) {
      return axis_outcome::fail(entry.backend + " failed: " + entry.detail);
    }
    if (entry.realized == nullptr) {
      return axis_outcome::fail(entry.backend +
                                ": solved without a realization");
    }
    if (!entry.realized->verify(f)) {
      return axis_outcome::fail(entry.backend +
                                ": realization fails its oracle");
    }
    if (entry.cost() < entry.lower_bound) {
      return axis_outcome::fail(entry.backend + ": cost " +
                                std::to_string(entry.cost()) +
                                " below reported lower bound " +
                                std::to_string(entry.lower_bound));
    }
    by_name[entry.backend] = &entry;
  }

  const int exact_size = by_name.at("exact6")->cost();
  for (const char* looser : {"janus", "janus-mf", "approx6"}) {
    if (by_name.at(looser)->cost() < exact_size) {
      return axis_outcome::fail(std::string(looser) + " (" +
                                std::to_string(by_name.at(looser)->cost()) +
                                " switches) beat exact6 (" +
                                std::to_string(exact_size) + ")");
    }
  }
  const int pprm_terms = backend::pprm(f).num_terms();
  if (by_name.at("esop")->cost() > pprm_terms) {
    return axis_outcome::fail(
        "exact ESOP (" + std::to_string(by_name.at("esop")->cost()) +
        " terms) exceeds its PPRM upper bound (" +
        std::to_string(pprm_terms) + ")");
  }
  const int min_steps =
      std::max(0, static_cast<int>(f.support().size()) - 1);
  if (by_name.at("chain")->cost() < min_steps) {
    return axis_outcome::fail(
        "chain (" + std::to_string(by_name.at("chain")->cost()) +
        " steps) below the support bound (" + std::to_string(min_steps) +
        ")");
  }
  return {};
}

struct axis_info {
  axis_id id;
  const char* name;
};

constexpr axis_info kAxes[] = {
    {axis_id::janus_vs_baselines, "janus_vs_baselines"},
    {axis_id::session_vs_scratch, "session_vs_scratch"},
    {axis_id::inprocess_on_off, "inprocess_on_off"},
    {axis_id::jobs1_vs_jobsn, "jobs1_vs_jobsn"},
    {axis_id::cache_cold_warm, "cache_cold_warm"},
    {axis_id::parser_consistency, "parser_consistency"},
    {axis_id::protocol, "protocol"},
    {axis_id::portfolio, "portfolio"},
};

}  // namespace

std::optional<std::string> replay_probes_one_shot(
    const lm::target_spec& target, const synth::janus_options& options,
    const synth::janus_result& run) {
  lm::lattice_info_cache cache(options.max_paths);
  lm::lm_options one_shot = options.lm;
  one_shot.sessions = nullptr;
  for (const synth::probe_record& p : run.probes) {
    if (p.status != lm::lm_status::realizable &&
        p.status != lm::lm_status::unrealizable) {
      continue;
    }
    const lm::lm_result r = lm::solve_lm(target, cache.get(p.d), one_shot);
    if (r.status != p.status) {
      return "probe " + p.d.str() + ": session status " +
             std::to_string(static_cast<int>(p.status)) +
             ", one-shot status " + std::to_string(static_cast<int>(r.status));
    }
  }
  return std::nullopt;
}

const char* axis_name(axis_id axis) {
  for (const axis_info& info : kAxes) {
    if (info.id == axis) {
      return info.name;
    }
  }
  return "unknown";
}

std::optional<axis_id> axis_from_name(std::string_view name) {
  for (const axis_info& info : kAxes) {
    if (name == info.name) {
      return info.id;
    }
  }
  return std::nullopt;
}

const std::vector<axis_id>& all_axes() {
  static const std::vector<axis_id> axes = [] {
    std::vector<axis_id> out;
    for (const axis_info& info : kAxes) {
      out.push_back(info.id);
    }
    return out;
  }();
  return axes;
}

case_report run_case(std::uint64_t seed, std::uint64_t case_index,
                     axis_id axis, int jobs) {
  // Independent streams per concern (the satellite contract): the generator,
  // the configuration shuffle and the PLA mutator cannot perturb each other,
  // and no case depends on any other case's draws.
  const rng master(seed);
  const rng case_rng = master.fork(case_index);
  rng gen = case_rng.fork(0);
  rng shuffle = case_rng.fork(1);
  rng mutation = case_rng.fork(2);

  case_report report;
  report.record.seed = seed;
  report.record.case_index = case_index;
  report.record.axis = axis_name(axis);
  report.record.generator = kGenTruthTable;

  axis_outcome outcome;
  try {
    switch (axis) {
      case axis_id::janus_vs_baselines:
        outcome = axis_janus_vs_baselines(gen, shuffle);
        break;
      case axis_id::session_vs_scratch:
        outcome = axis_session_vs_scratch(gen, shuffle);
        break;
      case axis_id::inprocess_on_off:
        outcome = axis_inprocess_on_off(gen, shuffle);
        break;
      case axis_id::jobs1_vs_jobsn:
        outcome = axis_jobs1_vs_jobsn(gen, shuffle, jobs);
        break;
      case axis_id::cache_cold_warm:
        outcome = axis_cache_cold_warm(gen, shuffle);
        break;
      case axis_id::parser_consistency: {
        // Mirror the axis's own first draw so the record names the actual
        // generator (the axis re-draws from an identical fork of `gen`).
        rng peek = case_rng.fork(0);
        report.record.generator =
            peek.next_bool(0.5) ? kGenMalformedPla : kGenPla;
        outcome = axis_parser_consistency(gen, mutation);
        break;
      }
      case axis_id::protocol:
        report.record.generator = kGenBadRequest;
        outcome = axis_protocol(gen, mutation);
        break;
      case axis_id::portfolio:
        outcome = axis_portfolio(gen, shuffle);
        break;
    }
  } catch (const std::exception& e) {
    outcome = axis_outcome::fail(std::string("unexpected exception: ") +
                                 e.what());
  } catch (...) {
    outcome = axis_outcome::fail("unexpected non-standard exception");
  }
  report.status = outcome.status;
  report.message = std::move(outcome.message);
  return report;
}

fuzz_report run_fuzz(const fuzz_options& options) {
  JANUS_CHECK_MSG(options.max_cases > 0 || options.budget_seconds > 0.0,
                  "fuzz run needs a case count or a time budget");
  JANUS_CHECK_MSG(!options.axes.empty(), "fuzz run needs at least one axis");

  fuzz_report report;
  stopwatch clock;
  for (std::uint64_t k = 0;; ++k) {
    if (options.max_cases > 0 && k >= options.max_cases) {
      break;
    }
    if (options.budget_seconds > 0.0 &&
        clock.seconds() >= options.budget_seconds) {
      break;
    }
    const axis_id axis = options.axes[k % options.axes.size()];
    case_report result = run_case(options.seed, k, axis, options.jobs);
    ++report.executed;
    if (options.verbose && result.status != case_status::failed) {
      std::fprintf(stderr, "janus_fuzz: %s %s%s%s\n",
                   result.status == case_status::passed ? "ok  " : "skip",
                   result.record.str().c_str(),
                   result.message.empty() ? "" : "  # ",
                   result.message.c_str());
    }
    switch (result.status) {
      case case_status::passed:
        ++report.passed;
        break;
      case case_status::skipped:
        ++report.skipped;
        break;
      case case_status::failed: {
        const std::string line = failure_line(result.record, result.message);
        std::fprintf(stderr, "janus_fuzz: FAIL %s\n", line.c_str());
        if (!options.failures_path.empty()) {
          std::ofstream out(options.failures_path, std::ios::app);
          out << line << '\n';
        }
        report.failures.push_back(std::move(result));
        break;
      }
    }
  }
  report.seconds = clock.seconds();
  return report;
}

}  // namespace janus::fuzz
