// Tests for the parallel solve pipeline: solver cancellation, solve_lm on a
// pool worker vs the calling thread, determinism of the dichotomic probe
// fan-out (jobs=1 vs jobs=8 must report bit-identical bounds and solution
// sizes), and the batch synthesis API.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "instances/table2.hpp"
#include "lm/lm_solver.hpp"
#include "sat/solver.hpp"
#include "synth/batch.hpp"
#include "synth/janus.hpp"
#include "util/timer.hpp"

namespace janus {
namespace {

using lm::target_spec;

/// Pigeonhole principle: n+1 pigeons in n holes — UNSAT and exponentially
/// hard for CDCL, the canonical "runs long enough to cancel" instance.
sat::cnf pigeonhole(int holes) {
  sat::cnf f;
  const int pigeons = holes + 1;
  std::vector<std::vector<sat::lit>> in(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[static_cast<std::size_t>(p)].push_back(sat::lit::make(f.new_var()));
    }
    f.at_least_one(in[static_cast<std::size_t>(p)]);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        f.add_binary(~in[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
                     ~in[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]);
      }
    }
  }
  return f;
}

TEST(SolverCancellation, PresetStopFlagReturnsUnknownImmediately) {
  sat::solver s;
  ASSERT_TRUE(s.add_cnf(pigeonhole(9)));
  std::atomic<bool> stop{true};
  s.set_stop_flag(&stop);
  EXPECT_EQ(s.solve(), sat::solve_result::unknown);
}

TEST(SolverCancellation, RaisedStopFlagAbortsHardInstancePromptly) {
  sat::solver s;
  ASSERT_TRUE(s.add_cnf(pigeonhole(12)));  // far beyond the test budget
  std::atomic<bool> stop{false};
  s.set_stop_flag(&stop);
  std::thread canceller([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
  });
  stopwatch clock;
  const sat::solve_result verdict = s.solve();
  canceller.join();
  EXPECT_EQ(verdict, sat::solve_result::unknown);
  // Prompt = same order of magnitude as the cancellation delay, not the
  // hours pigeonhole(12) would take; very generous bound for slow CI.
  EXPECT_LT(clock.seconds(), 20.0);
}

TEST(SolverCancellation, ClearedFlagDoesNotDisturbSolving) {
  sat::solver s;
  const sat::var a = s.new_var();
  const sat::var b = s.new_var();
  s.add_clause({sat::lit::make(a), sat::lit::make(b)});
  s.add_clause({sat::lit::make(a, true)});
  std::atomic<bool> stop{false};
  s.set_stop_flag(&stop);
  ASSERT_EQ(s.solve(), sat::solve_result::sat);
  EXPECT_TRUE(s.model_bool(b));
}

TEST(PooledSolveLm, MatchesSequentialSolveExactly) {
  // Calling from a pool worker changes nothing about one LM decision:
  // solve_lm builds and solves the same cheaper side on any thread, so the
  // verdict, the side and the search itself (conflict count) are identical.
  exec::thread_pool pool(2);
  lm::lattice_info_cache cache;
  const struct {
    const char* text;
    int vars;
    lattice::dims d;
  } cases[] = {
      {"ab + b'c", 3, {2, 2}},
      {"ab + b'c", 3, {3, 3}},
      {"abcde", 5, {2, 2}},        // structurally unrealizable
      {"ab + cd + ce", 5, {3, 3}},
  };
  for (const auto& c : cases) {
    const target_spec t = target_spec::parse(c.vars, c.text);
    const lm::lm_result seq =
        lm::solve_lm(t, cache.get(c.d), lm::lm_options{});
    lm::lm_result par;
    exec::task_group group(&pool);
    group.run([&] { par = lm::solve_lm(t, cache.get(c.d), lm::lm_options{}); });
    group.wait();
    EXPECT_EQ(seq.status, par.status) << c.text << " on " << c.d.str();
    EXPECT_EQ(seq.used_dual_problem, par.used_dual_problem) << c.text;
    EXPECT_EQ(seq.solver.conflicts, par.solver.conflicts) << c.text;
    if (par.status == lm::lm_status::realizable) {
      ASSERT_TRUE(par.mapping.has_value());
      EXPECT_TRUE(par.mapping->realizes(t.function())) << c.text;
      EXPECT_EQ(par.mapping->grid(), c.d);
    }
  }
}

TEST(SolveLmCancellation, PreCancelledTokenWins) {
  lm::lattice_info_cache cache;
  const target_spec t = target_spec::parse(3, "ab + b'c");
  exec::cancel_source source;
  source.request_cancel();
  lm::lm_options o;
  o.cancel = source.token();
  const lm::lm_result r = lm::solve_lm(t, cache.get({3, 3}), o);
  EXPECT_EQ(r.status, lm::lm_status::cancelled);
}

synth::janus_options test_options() {
  synth::janus_options o;
  o.time_limit_s = 120.0;
  o.lm.sat_time_limit_s = 30.0;
  return o;
}

/// The Table II regression set for determinism checks: the small instances
/// (4 inputs, ≤ 4 products) finish in well under a second per probe, so no
/// budget ever expires and jobs=1 vs jobs=8 must agree exactly.
std::vector<target_spec> small_table2_targets() {
  std::vector<target_spec> targets;
  for (const char* name : {"b12_03", "c17_01", "dc1_00", "dc1_02", "dc1_03"}) {
    targets.push_back(instances::make_table2_instance(name));
  }
  return targets;
}

TEST(ProbeFanOut, Jobs8MatchesJobs1OnTableIISmallInstances) {
  for (const target_spec& t : small_table2_targets()) {
    synth::janus_synthesizer seq_engine(test_options());
    const synth::janus_result seq = seq_engine.run(t);

    exec::thread_pool pool(8);
    synth::janus_options parallel = test_options();
    parallel.exec.pool = &pool;
    synth::janus_synthesizer par_engine(parallel);
    const synth::janus_result par = par_engine.run(t);

    ASSERT_TRUE(seq.solution.has_value()) << t.name();
    ASSERT_TRUE(par.solution.has_value()) << t.name();
    EXPECT_EQ(seq.solution_size(), par.solution_size()) << t.name();
    EXPECT_EQ(seq.lower_bound, par.lower_bound) << t.name();
    EXPECT_EQ(seq.old_upper_bound, par.old_upper_bound) << t.name();
    EXPECT_EQ(seq.new_upper_bound, par.new_upper_bound) << t.name();
    EXPECT_FALSE(par.hit_time_limit) << t.name();
    EXPECT_TRUE(par.solution->realizes(t.function())) << t.name();
  }
}

TEST(Batch, ParallelBatchMatchesSequentialAndPreservesOrder) {
  const std::vector<target_spec> targets = small_table2_targets();

  synth::batch_options sequential;
  sequential.base = test_options();
  sequential.jobs = 1;
  const synth::batch_result seq = synth::synthesize_batch(targets, sequential);

  synth::batch_options parallel = sequential;
  parallel.jobs = 4;
  const synth::batch_result par = synth::synthesize_batch(targets, parallel);

  ASSERT_EQ(seq.results.size(), targets.size());
  ASSERT_EQ(par.results.size(), targets.size());
  EXPECT_EQ(seq.solved, static_cast<int>(targets.size()));
  EXPECT_EQ(par.solved, seq.solved);
  EXPECT_EQ(par.total_switches, seq.total_switches);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(par.results[i].solution_size(), seq.results[i].solution_size())
        << targets[i].name();
    EXPECT_EQ(par.results[i].lower_bound, seq.results[i].lower_bound)
        << targets[i].name();
    EXPECT_EQ(par.results[i].new_upper_bound, seq.results[i].new_upper_bound)
        << targets[i].name();
    ASSERT_TRUE(par.results[i].solution.has_value());
    EXPECT_TRUE(
        par.results[i].solution->realizes(targets[i].function()))
        << targets[i].name();
  }
  // The probe fan-out actually ran SAT work.
  EXPECT_GT(par.solver_totals.propagations, 0u);
}

TEST(Batch, PerTargetDeadlineIsHonored) {
  // A zero per-target budget must not hang or crash: every target reports
  // its bound-construction fallback (bounds ignore the dichotomic search).
  const std::vector<target_spec> targets = small_table2_targets();
  synth::batch_options o;
  o.base = test_options();
  o.base.time_limit_s = 1e-9;
  o.jobs = 2;
  const synth::batch_result r = synth::synthesize_batch(targets, o);
  ASSERT_EQ(r.results.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(r.results[i].solution.has_value()) << targets[i].name();
    EXPECT_TRUE(r.results[i].solution->realizes(targets[i].function()));
  }
}

}  // namespace
}  // namespace janus
