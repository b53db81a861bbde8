// Shared argv handling for the standalone bench mains.
//
// Every JSON-emitting bench accepts its historical positional paths plus an
// explicit `--seed N`, and echoes the seed in its JSON header — a committed
// BENCH_* document therefore names the exact instance-generation salt that
// produced it (seed 0, the default, is the canonical Table II stand-in set;
// see `make_table2_instance` in `table2.hpp`) and the build that measured
// it. Header-only on purpose: the benches are standalone mains and
// janus_core must not depend on them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/json_writer.hpp"

namespace janus::bench {

/// Opening lines shared by every BENCH_* document — `{`, "bench", "seed"
/// and the provenance fields "rev", "build_type", "compiler",
/// "hardware_threads" — with string escaping through util::json_escape, so
/// all emitters share one escaper instead of N printf format strings. The
/// JANUS_GIT_REV/BUILD_TYPE/COMPILER macros come from CMakeLists.txt.
[[nodiscard]] inline std::string bench_json_header(std::string_view bench,
                                                   std::uint64_t seed) {
  const auto text = [](std::string_view key, std::string_view value) {
    return "  \"" + std::string(key) + "\": \"" + util::json_escape(value) +
           "\",\n";
  };
  return "{\n" + text("bench", bench) + "  \"seed\": " +
         std::to_string(seed) + ",\n" + text("rev", JANUS_GIT_REV) +
         text("build_type", JANUS_BUILD_TYPE) +
         text("compiler", JANUS_COMPILER) + "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
}

struct bench_args {
  std::vector<std::string> positional;  ///< paths, in historical order
  std::uint64_t seed = 0;               ///< --seed N (0 = canonical set)

  /// positional[i], or `fallback` when fewer were given.
  [[nodiscard]] const char* path(std::size_t i, const char* fallback) const {
    return i < positional.size() ? positional[i].c_str() : fallback;
  }
};

/// Parse argv; exits(2) with a usage line on malformed input so every bench
/// fails the same way.
inline bench_args parse_bench_args(int argc, char** argv) {
  bench_args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --seed needs a value\n", argv[0]);
        std::exit(2);
      }
      char* end = nullptr;
      errno = 0;
      const unsigned long long value = std::strtoull(argv[++i], &end, 10);
      if (errno != 0 || end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "%s: bad --seed '%s'\n", argv[0], argv[i]);
        std::exit(2);
      }
      args.seed = static_cast<std::uint64_t>(value);
    } else if (argv[i][0] == '-' && argv[i][1] == '-') {
      std::fprintf(stderr, "%s: unknown option '%s' (only --seed N)\n",
                   argv[0], argv[i]);
      std::exit(2);
    } else {
      args.positional.emplace_back(argv[i]);
    }
  }
  return args;
}

}  // namespace janus::bench
