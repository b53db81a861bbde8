// janus_fuzz — differential fuzzing + deterministic replay driver.
//
//   janus_fuzz [--cases N] [--budget-seconds S] [--seed U64]
//              [--axes a,b,c] [--jobs N] [--failures FILE] [-v]
//   janus_fuzz --replay RECORD [--jobs N]
//   janus_fuzz --list-axes
//   janus_fuzz --assert-annotations [--cases N] [--seed U64]
//
// The fuzz loop generates random truth tables / PLAs / adversarial PLA text
// from the master seed and runs each case through one differential axis (the
// configurations that must agree — see src/fuzz/harness.hpp). Every
// discrepancy is appended to fuzz-failures.txt as a one-line repro record;
// `--replay` re-executes exactly that case from the record alone (a whole
// failure line pastes in verbatim). docs/testing.md walks through the CI
// workflow.
//
//   --assert-annotations      run with the util::mutex runtime owner checks
//                             enabled (src/util/thread_annotations.hpp) on a
//                             multi-threaded axis; fails unless lock
//                             transitions were validated with zero
//                             discipline violations. The CI static-analysis
//                             job runs this as the dynamic counterpart of
//                             the compile-time annotations.
//   --inject cache-polarity   test-only fault injection: corrupt the cache
//                             inverse-transform so the harness must catch it
//                             (exercises the whole failure→record→replay
//                             path; used by CI and tests/test_fuzz.cpp).
//
// Exit status: 0 = clean, 1 = discrepancies found (or a replayed case still
// failing), 2 = usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/generators.hpp"
#include "fuzz/harness.hpp"
#include "util/log.hpp"
#include "util/str.hpp"
#include "util/thread_annotations.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: janus_fuzz [--cases N] [--budget-seconds S] [--seed U64]\n"
      "                  [--axes a,b,c] [--jobs N] [--failures FILE]\n"
      "                  [--inject cache-polarity] [--assert-annotations]\n"
      "                  [-v]\n"
      "       janus_fuzz --replay RECORD [--jobs N] [--inject ...]\n"
      "       janus_fuzz --list-axes\n");
  return 2;
}

std::optional<std::uint64_t> parse_u64_arg(const char* text) {
  if (text == nullptr || *text == '\0') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char ch : text) {
    if (ch == ',') {
      if (!current.empty()) {
        out.push_back(current);
      }
      current.clear();
    } else {
      current += ch;
    }
  }
  if (!current.empty()) {
    out.push_back(current);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  janus::fuzz::fuzz_options options;
  options.max_cases = 0;
  options.budget_seconds = 0.0;
  std::string replay_record;
  bool list_axes = false;
  bool assert_annotations = false;
  bool axes_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--cases") {
      const auto value = parse_u64_arg(next());
      if (!value) {
        return usage();
      }
      options.max_cases = *value;
    } else if (arg == "--budget-seconds") {
      const char* text = next();
      const auto seconds = text == nullptr
                               ? std::nullopt
                               : janus::parse_seconds(text, 0.001, 1e7);
      if (!seconds.has_value()) {
        return usage();
      }
      options.budget_seconds = *seconds;
    } else if (arg == "--seed") {
      const auto value = parse_u64_arg(next());
      if (!value) {
        return usage();
      }
      options.seed = *value;
    } else if (arg == "--jobs") {
      const auto value = parse_u64_arg(next());
      if (!value || *value < 1 || *value > 64) {
        return usage();
      }
      options.jobs = static_cast<int>(*value);
    } else if (arg == "--axes") {
      const char* text = next();
      if (text == nullptr) {
        return usage();
      }
      axes_given = true;
      options.axes.clear();
      for (const std::string& name : split_list(text)) {
        const auto axis = janus::fuzz::axis_from_name(name);
        if (!axis) {
          std::fprintf(stderr, "janus_fuzz: unknown axis '%s'\n",
                       name.c_str());
          return usage();
        }
        options.axes.push_back(*axis);
      }
      if (options.axes.empty()) {
        return usage();
      }
    } else if (arg == "--failures") {
      const char* text = next();
      if (text == nullptr) {
        return usage();
      }
      options.failures_path = text;
    } else if (arg == "--replay") {
      const char* text = next();
      if (text == nullptr) {
        return usage();
      }
      replay_record = text;
    } else if (arg == "--inject") {
      const char* text = next();
      if (text == nullptr || std::strcmp(text, "cache-polarity") != 0) {
        std::fprintf(stderr,
                     "janus_fuzz: --inject supports only cache-polarity\n");
        return usage();
      }
      setenv("JANUS_FUZZ_INJECT", text, 1);
    } else if (arg == "--assert-annotations") {
      assert_annotations = true;
    } else if (arg == "-v" || arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--list-axes") {
      list_axes = true;
    } else {
      std::fprintf(stderr, "janus_fuzz: unknown argument '%s'\n", arg.c_str());
      return usage();
    }
  }

  janus::set_log_level(janus::log_level::warn);

  if (list_axes) {
    for (const janus::fuzz::axis_id axis : janus::fuzz::all_axes()) {
      std::printf("%s\n", janus::fuzz::axis_name(axis));
    }
    return 0;
  }

  if (!replay_record.empty()) {
    const auto record = janus::fuzz::repro_record::parse(replay_record);
    if (!record) {
      std::fprintf(stderr, "janus_fuzz: malformed repro record '%s'\n",
                   replay_record.c_str());
      return 2;
    }
    const auto axis = janus::fuzz::axis_from_name(record->axis);
    if (!axis) {
      std::fprintf(stderr, "janus_fuzz: record names unknown axis '%s'\n",
                   record->axis.c_str());
      return 2;
    }
    const janus::fuzz::case_report result = janus::fuzz::run_case(
        record->seed, record->case_index, *axis, options.jobs);
    if (result.record.generator != record->generator) {
      std::fprintf(stderr,
                   "janus_fuzz: warning: case regenerated as '%s' but the "
                   "record says '%s' — recorded on a different build?\n",
                   result.record.generator.c_str(),
                   record->generator.c_str());
    }
    switch (result.status) {
      case janus::fuzz::case_status::failed:
        std::printf("replay %s: FAIL  %s\n", result.record.str().c_str(),
                    result.message.c_str());
        return 1;
      case janus::fuzz::case_status::skipped:
        std::printf("replay %s: skipped (%s)\n", result.record.str().c_str(),
                    result.message.c_str());
        return 0;
      case janus::fuzz::case_status::passed:
        std::printf("replay %s: ok\n", result.record.str().c_str());
        return 0;
    }
    return 0;
  }

  if (options.max_cases == 0 && options.budget_seconds == 0.0) {
    options.max_cases = assert_annotations
                            ? 40   // smoke scale: every case is multi-threaded
                            : 200;  // a quick default sweep
  }
  if (assert_annotations) {
    // Dynamic counterpart of the static annotations: run a genuinely
    // multi-threaded axis with the wrapper's owner tracking on, then demand
    // the run exercised it and observed zero lock-discipline violations.
    if (!axes_given) {
      options.axes = {janus::fuzz::axis_id::jobs1_vs_jobsn};
    }
    janus::util::set_mutex_runtime_checks(true);
  }

  const janus::fuzz::fuzz_report report = janus::fuzz::run_fuzz(options);
  std::printf(
      "janus_fuzz: seed=%llu  %llu cases (%llu ok, %llu skipped, %zu "
      "failed) in %.1fs\n",
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(report.executed),
      static_cast<unsigned long long>(report.passed),
      static_cast<unsigned long long>(report.skipped),
      report.failures.size(), report.seconds);
  if (assert_annotations) {
    const std::uint64_t checks = janus::util::mutex_checks_performed();
    const std::uint64_t violations = janus::util::mutex_check_violations();
    std::printf("annotation smoke: %llu lock transitions validated, "
                "%llu violations\n",
                static_cast<unsigned long long>(checks),
                static_cast<unsigned long long>(violations));
    if (checks == 0) {
      std::printf("annotation smoke FAILED: the sweep never exercised the "
                  "annotated mutex wrapper\n");
      return 1;
    }
    if (violations != 0) {
      std::printf("annotation smoke FAILED: lock-discipline violations "
                  "detected\n");
      return 1;
    }
  }
  if (!report.clean()) {
    std::printf("failures recorded in %s; replay any line with:\n"
                "  janus_fuzz --replay '<record>'\n",
                options.failures_path.empty() ? "(not written)"
                                              : options.failures_path.c_str());
    return 1;
  }
  return 0;
}
