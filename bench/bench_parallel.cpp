// Wall-clock scaling of batch Table II synthesis across worker counts.
//
// Runs the same multi-target batch at jobs ∈ {1, 2, 4, 8} and reports the
// speedup over jobs=1, emitting one JSON document on stdout for the bench
// trajectory. Parallelism comes from two stacked sources, both on one pool:
// target sharding and the dichotomic probe fan-out.
//
// Defaults are laptop-scale; JANUS_BENCH_FULL=1 uses more instances and
// longer budgets. Note speedups require real cores: on a single-core
// container every jobs level measures ~the same wall-clock.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.hpp"
#include "instances/table2.hpp"
#include "synth/batch.hpp"
#include "util/timer.hpp"

namespace {

using janus::instances::table2_row;
using janus::instances::table2_rows;
using janus::lm::target_spec;

std::vector<target_spec> bench_targets(bool full, std::uint64_t seed) {
  // The smallest Table II instances: enough independent SAT work to shard,
  // small enough that a laptop run stays in seconds.
  const int max_inputs = full ? 8 : 6;
  const int max_products = full ? 10 : 7;
  const std::size_t max_instances = full ? 16 : 8;
  std::vector<target_spec> targets;
  for (const table2_row& row : table2_rows()) {
    if (row.inputs <= max_inputs && row.products <= max_products) {
      targets.push_back(
          janus::instances::make_table2_instance(row, nullptr, seed));
      if (targets.size() >= max_instances) {
        break;
      }
    }
  }
  return targets;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = std::getenv("JANUS_BENCH_FULL") != nullptr;
  const janus::bench::bench_args args =
      janus::bench::parse_bench_args(argc, argv);
  const std::vector<target_spec> targets = bench_targets(full, args.seed);

  janus::synth::batch_options base;
  base.base.time_limit_s = full ? 120.0 : 20.0;
  base.base.lm.sat_time_limit_s = full ? 30.0 : 5.0;

  std::fprintf(stderr, "bench_parallel: %zu targets, hardware threads=%u\n",
               targets.size(), std::thread::hardware_concurrency());

  std::fputs(janus::bench::bench_json_header("parallel", args.seed).c_str(),
             stdout);
  std::printf("  \"targets\": %zu,\n", targets.size());
  std::printf("  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"runs\": [\n");
  double baseline = 0.0;
  const int jobs_levels[] = {1, 2, 4, 8};
  for (std::size_t k = 0; k < std::size(jobs_levels); ++k) {
    const int jobs = jobs_levels[k];
    janus::synth::batch_options o = base;
    o.jobs = jobs;
    const janus::synth::batch_result r =
        janus::synth::synthesize_batch(targets, o);
    if (jobs == 1) {
      baseline = r.seconds;
    }
    const double speedup = r.seconds > 0.0 ? baseline / r.seconds : 0.0;
    std::fprintf(stderr,
                 "  jobs=%d: %.2fs wall, %d/%zu solved, %d switches, "
                 "%.2fx speedup\n",
                 jobs, r.seconds, r.solved, targets.size(), r.total_switches,
                 speedup);
    std::printf("    {\"jobs\": %d, \"seconds\": %.3f, \"solved\": %d, "
                "\"total_switches\": %d, \"probes\": %llu, "
                "\"conflicts\": %llu, \"speedup_vs_jobs1\": %.3f}%s\n",
                jobs, r.seconds, r.solved, r.total_switches,
                static_cast<unsigned long long>(r.total_probes),
                static_cast<unsigned long long>(r.solver_totals.conflicts),
                speedup, k + 1 < std::size(jobs_levels) ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}
