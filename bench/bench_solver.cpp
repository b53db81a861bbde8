// One-shot (scratch) vs session solves and SAT inprocessing off vs on, over
// the hard Table II ladders.
//
// The bench holds the probe sequence fixed (docs/solver.md): each target's
// ladder — the nontrivial dims of its default dichotomic search — is
// replayed through solve_lm in all four configurations {scratch, session} x
// {inprocess off, on}. The scratch columns are the one-shot solve_lm path
// (fresh encoder + solver per probe, the only path that gets bounded
// variable elimination); the session columns are what every ladder runs, so
// the scratch_on vs session_on pair is the measured reason the one-shot
// path is kept as a reference. Per row it
// records wall seconds, conflicts, propagations and the two
// simplification counters; every configuration must report the same
// realization size (the bench exits non-zero otherwise — simplification is
// a pure transformation, never an approximation).
//
// The headline number is the total wall speedup of inprocessing on over
// off across all rows. Scratch rows carry the full reduction (bounded
// variable elimination included); session rows freeze their interface, so
// they isolate the vivification share.
//
// Output: a human summary on stderr and one JSON document on stdout; the
// same JSON is also written to the path in argv[1] (default
// BENCH_solver.json). JANUS_BENCH_FULL=1 widens the target set;
// JANUS_BENCH_SMOKE=1 shrinks it to one fast BVE-heavy target plus one
// two-probe ladder (CI's sanitizer smoke step).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "instances/table2.hpp"
#include "lm/lm_session.hpp"
#include "lm/lm_solver.hpp"
#include "util/timer.hpp"

namespace {

using janus::lattice::dims;

struct bench_row {
  const char* name;
  std::vector<dims> ladder;  ///< the default search's nontrivial probes
};

std::vector<bench_row> bench_rows() {
  if (std::getenv("JANUS_BENCH_SMOKE") != nullptr) {
    // A fast target whose ladder reliably exercises the whole pipeline
    // (bounded variable elimination included) in a sanitizer build, and a
    // two-probe ladder, so the session columns span more than one dims group.
    return {{"ex5_06", {{4, 5}}}, {"misex1_01", {{3, 5}, {3, 4}}}};
  }
  std::vector<bench_row> rows = {
      {"b12_00", {{3, 4}, {4, 3}, {3, 5}, {5, 3}}},
      {"misex1_01", {{3, 5}, {3, 4}}},
      {"ex5_10", {{4, 4}, {3, 6}}},
      {"ex5_06", {{4, 5}}},
      {"misex1_02", {{3, 6}, {4, 5}}},
  };
  if (std::getenv("JANUS_BENCH_FULL") != nullptr) {
    rows.push_back({"ex5_21", {{3, 8}, {4, 5}, {5, 4}, {3, 7}}});
  }
  return rows;
}

struct config_totals {
  double wall = 0.0;        ///< ladder wall time (encode + solve)
  janus::sat::solver_stats sat;
  int size = -1;            ///< realization switches of the last SAT probe
};

/// cfg index: bit 0 = inprocess on, bit 1 = session mode.
constexpr int kConfigs = 4;
constexpr const char* kConfigName[kConfigs] = {"scratch_off", "scratch_on",
                                               "session_off", "session_on"};

config_totals run_config(const janus::lm::target_spec& target,
                         const std::vector<dims>& ladder, bool session,
                         bool inprocess) {
  janus::lm::lm_options options;
  options.sat_time_limit_s = 300.0;
  options.solver = janus::lm::default_lm_solver_options();
  options.solver.inprocess = inprocess;
  janus::lm::lm_session_pool pool(target, options.encode, options.solver);
  if (session) {
    options.sessions = &pool;
  }
  janus::lm::lattice_info_cache cache;
  config_totals out;
  janus::stopwatch clock;
  for (const dims& d : ladder) {
    const janus::lm::lm_result r =
        janus::lm::solve_lm(target, cache.get(d), options);
    out.sat += r.solver;
    if (r.status == janus::lm::lm_status::realizable && r.mapping) {
      out.size = static_cast<int>(r.mapping->size());
    }
  }
  out.wall = clock.seconds();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const janus::bench::bench_args args =
      janus::bench::parse_bench_args(argc, argv);
  const char* json_path = args.path(0, "BENCH_solver.json");
  const std::vector<bench_row> rows = bench_rows();

  std::vector<std::vector<config_totals>> results;
  bool sizes_match = true;
  double wall[2] = {0.0, 0.0};   // [inprocess off, on] across both modes
  janus::sat::solver_stats sat[2];
  for (const bench_row& row : rows) {
    const janus::lm::target_spec target = janus::instances::make_table2_instance(
        janus::instances::table2_row_by_name(row.name), nullptr, args.seed);
    std::vector<config_totals> per_config;
    for (int cfg = 0; cfg < kConfigs; ++cfg) {
      const bool inprocess = (cfg & 1) != 0;
      const bool session = (cfg & 2) != 0;
      config_totals t = run_config(target, row.ladder, session, inprocess);
      wall[inprocess ? 1 : 0] += t.wall;
      sat[inprocess ? 1 : 0] += t.sat;
      per_config.push_back(t);
    }
    const int size = per_config[0].size;
    for (const config_totals& t : per_config) {
      sizes_match = sizes_match && t.size == size;
    }
    std::fprintf(stderr,
                 "%-12s %2d switches  conflicts scratch %8llu -> %8llu  "
                 "session %8llu -> %8llu  wall %6.2fs -> %6.2fs%s\n",
                 row.name, size,
                 static_cast<unsigned long long>(per_config[0].sat.conflicts),
                 static_cast<unsigned long long>(per_config[1].sat.conflicts),
                 static_cast<unsigned long long>(per_config[2].sat.conflicts),
                 static_cast<unsigned long long>(per_config[3].sat.conflicts),
                 per_config[0].wall + per_config[2].wall,
                 per_config[1].wall + per_config[3].wall,
                 per_config[0].size == per_config[1].size &&
                         per_config[1].size == per_config[2].size &&
                         per_config[2].size == per_config[3].size
                     ? ""
                     : "  [MISMATCH]");
    results.push_back(std::move(per_config));
  }

  const bool simplifier_fired = sat[1].eliminated_vars + sat[1].vivified > 0;
  const double wall_speedup = wall[1] > 0.0 ? wall[0] / wall[1] : 0.0;
  const auto ratio = [](std::uint64_t off, std::uint64_t on) {
    return off > 0 ? static_cast<double>(on) / static_cast<double>(off) : 1.0;
  };
  std::fprintf(stderr,
               "total: %.2fx wall speedup, conflicts x%.3f, props x%.3f, "
               "sizes %s, simplifier %s\n",
               wall_speedup,
               ratio(sat[0].conflicts, sat[1].conflicts),
               ratio(sat[0].propagations, sat[1].propagations),
               sizes_match ? "identical" : "MISMATCH",
               simplifier_fired ? "fired" : "NEVER FIRED");

  std::string json;
  char line[768];
  const auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    json += line;
  };
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  json += janus::bench::bench_json_header("solver", args.seed);
  emit("  \"targets\": %zu,\n", rows.size());
  emit("  \"sizes_identical\": %s,\n", sizes_match ? "true" : "false");
  emit("  \"simplifier_fired\": %s,\n", simplifier_fired ? "true" : "false");
  emit("  \"totals\": {\n");
  for (int on = 0; on < 2; ++on) {
    emit("    \"inprocess_%s\": {\"wall_seconds\": %.3f, "
         "\"conflicts\": %llu, \"propagations\": %llu, "
         "\"eliminated_vars\": %llu, \"vivified\": %llu},\n",
         on != 0 ? "on" : "off", wall[on], u(sat[on].conflicts),
         u(sat[on].propagations), u(sat[on].eliminated_vars),
         u(sat[on].vivified));
  }
  emit("    \"conflict_ratio\": %.4f,\n",
       ratio(sat[0].conflicts, sat[1].conflicts));
  emit("    \"wall_speedup\": %.3f\n  },\n", wall_speedup);
  emit("  \"instances\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string ladder;
    for (const dims& d : rows[i].ladder) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%s%dx%d", ladder.empty() ? "" : " ",
                    d.rows, d.cols);
      ladder += buf;
    }
    emit("    {\"name\": \"%s\", \"ladder\": \"%s\", \"switches\": %d,\n",
         rows[i].name, ladder.c_str(), results[i][0].size);
    for (int cfg = 0; cfg < kConfigs; ++cfg) {
      const config_totals& t = results[i][cfg];
      emit("     \"%s\": {\"wall_seconds\": %.3f, \"conflicts\": %llu, "
           "\"propagations\": %llu, \"eliminated_vars\": %llu, "
           "\"vivified\": %llu}%s\n",
           kConfigName[cfg], t.wall, u(t.sat.conflicts),
           u(t.sat.propagations), u(t.sat.eliminated_vars),
           u(t.sat.vivified), cfg + 1 < kConfigs ? "," : "}");
    }
    emit("%s\n", i + 1 < rows.size() ? "    ," : "");
  }
  emit("  ]\n}\n");

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "bench_solver: cannot write %s\n", json_path);
  }
  return sizes_match ? 0 : 1;
}
