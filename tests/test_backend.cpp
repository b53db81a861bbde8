// The backend subsystem: the interface conformance suite runs over EVERY
// registered backend (deadline honored, cancellation non-destructive, sane
// stats and oracle-verified results), then the ESOP and chain engines are
// pinned to known-optimal term/step counts on small functions, and the
// portfolio's racing/selection semantics are exercised end to end, solo and
// raced over a short Table II slice.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "backend/chain.hpp"
#include "backend/esop.hpp"
#include "backend/lattice_backend.hpp"
#include "instances/table2.hpp"
#include "synth/batch.hpp"
#include "synth/portfolio.hpp"

namespace janus {
namespace {

using backend::backend_request;
using backend::backend_result;
using backend::backend_status;
using lm::target_spec;

target_spec small_target() {
  // maj(a, b, c) — nontrivial for every engine, easy for all of them.
  return target_spec::parse(3, "ab + ac + bc", "maj3");
}

backend_request make_request(const target_spec& target) {
  backend_request request;
  request.target = target;
  request.base.lm.sat_time_limit_s = 60.0;
  return request;
}

// ---------------------------------------------------------------------------
// Interface conformance, over every registered backend

class backend_conformance : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(all_backends, backend_conformance,
                         ::testing::ValuesIn(backend::backend_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST_P(backend_conformance, registered_and_constructible) {
  EXPECT_TRUE(backend::is_backend_name(GetParam()));
  const auto engine = backend::make_backend(GetParam());
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->name(), GetParam());
  const backend::backend_capabilities caps = engine->capabilities();
  EXPECT_GE(caps.max_vars, 3);
  EXPECT_STRNE(caps.cost_unit, "");
}

TEST_P(backend_conformance, solves_and_verifies_small_target) {
  const auto engine = backend::make_backend(GetParam());
  const target_spec target = small_target();
  const backend_result result = engine->run(make_request(target));
  ASSERT_EQ(result.status, backend_status::solved) << result.detail;
  ASSERT_NE(result.realized, nullptr);
  EXPECT_TRUE(result.realized->verify(target.function()));
  EXPECT_GT(result.cost(), 0);
  EXPECT_STREQ(result.realized->cost_unit(),
               engine->capabilities().cost_unit);
  EXPECT_GE(result.seconds, 0.0);
  EXPECT_GE(result.cost(), result.lower_bound);
}

TEST_P(backend_conformance, honors_expired_deadline) {
  const auto engine = backend::make_backend(GetParam());
  backend_request request = make_request(small_target());
  request.dl = deadline::in_seconds(0.0);
  stopwatch timer;
  const backend_result result = engine->run(request);
  EXPECT_LT(timer.seconds(), 30.0);
  // An expired budget must yield promptly. Engines whose setup work
  // completes instantly may still answer; anything else reports timeout —
  // and a verified best-effort realization (constructive bound) may ride
  // along either way.
  if (result.status != backend_status::solved) {
    EXPECT_EQ(result.status, backend_status::timeout) << result.detail;
  }
  if (result.realized != nullptr) {
    EXPECT_TRUE(result.realized->verify(small_target().function()));
  }
}

TEST_P(backend_conformance, cancellation_is_non_destructive) {
  const auto engine = backend::make_backend(GetParam());
  const target_spec target = small_target();

  exec::cancel_source source;
  source.request_cancel();
  backend_request cancelled = make_request(target);
  cancelled.exec = cancelled.exec.with_cancel(source.token());
  const backend_result first = engine->run(cancelled);
  EXPECT_NE(first.status, backend_status::failed) << first.detail;
  EXPECT_NE(first.status, backend_status::solved)
      << "a pre-fired token must not report a converged search";

  // The same instance must stay usable with a clean token.
  const backend_result second = engine->run(make_request(target));
  ASSERT_EQ(second.status, backend_status::solved) << second.detail;
  ASSERT_NE(second.realized, nullptr);
  EXPECT_TRUE(second.realized->verify(target.function()));
}

TEST_P(backend_conformance, stats_deltas_sane) {
  const auto engine = backend::make_backend(GetParam());
  const backend_result result = engine->run(make_request(small_target()));
  // Counters are per-run sums over the backend's solvers: a run that did
  // any SAT work reports propagations >= decisions-implied floor, and
  // repeating the run must not report wildly different magnitudes (the
  // engines are deterministic at jobs=1).
  const backend_result again = engine->run(make_request(small_target()));
  EXPECT_EQ(result.cost(), again.cost());
  EXPECT_EQ(result.sat.conflicts, again.sat.conflicts);
  EXPECT_EQ(result.sat.decisions, again.sat.decisions);
  EXPECT_GE(result.sat.propagations, result.sat.conflicts);
}

TEST_P(backend_conformance, rejects_oversized_targets_typed) {
  const auto engine = backend::make_backend(GetParam());
  const int max_vars = engine->capabilities().max_vars;
  if (max_vars >= bf::truth_table::max_vars) {
    GTEST_SKIP() << "backend has no practical input cap";
  }
  bf::truth_table wide(max_vars + 1);
  wide.set(1, true);
  const backend_result result =
      engine->run(make_request(target_spec::from_function(wide, "wide")));
  EXPECT_EQ(result.status, backend_status::failed);
  EXPECT_NE(result.detail.find("unsupported"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ESOP engine: known-optimal term counts

int esop_terms(const std::string& expr, int num_vars) {
  const auto engine = backend::make_backend("esop");
  const backend_result result =
      engine->run(make_request(target_spec::parse(num_vars, expr)));
  EXPECT_EQ(result.status, backend_status::solved) << result.detail;
  EXPECT_TRUE(result.optimal);
  EXPECT_TRUE(result.realized->verify(
      target_spec::parse(num_vars, expr).function()));
  return result.cost();
}

TEST(esop_backend, known_optimal_term_counts) {
  EXPECT_EQ(esop_terms("ab", 2), 1);      // a single product
  EXPECT_EQ(esop_terms("ab' + a'b", 2), 2);  // a ⊕ b = a ^ b
  EXPECT_EQ(esop_terms("a + b", 2), 2);   // a ∨ b = a ^ a'b
  // maj3 = ab ^ ac ^ bc; 2 terms are impossible (no pair of subcubes XORs
  // to the 4-minterm onset).
  EXPECT_EQ(esop_terms("ab + ac + bc", 3), 3);
  // 3-input parity: one singleton term per variable.
  EXPECT_EQ(esop_terms("ab'c' + a'bc' + a'b'c + abc", 3), 3);
}

TEST(esop_backend, constants) {
  const auto engine = backend::make_backend("esop");
  const backend_result zero = engine->run(
      make_request(target_spec::from_function(bf::truth_table::zeros(3))));
  EXPECT_EQ(zero.status, backend_status::solved);
  EXPECT_EQ(zero.cost(), 0);
  const backend_result one = engine->run(
      make_request(target_spec::from_function(bf::truth_table::ones(3))));
  EXPECT_EQ(one.status, backend_status::solved);
  EXPECT_EQ(one.cost(), 1);  // the tautology cube
}

TEST(esop_backend, pprm_is_a_valid_esop) {
  // PPRM of a ∨ b is a ^ b ^ ab — exactly the all-positive ESOP.
  const bf::truth_table f =
      target_spec::parse(2, "a + b").function();
  const backend::esop_form form = backend::pprm(f);
  EXPECT_EQ(form.num_terms(), 3);
  EXPECT_EQ(form.to_truth_table(), f);
  // PPRM of parity is the singleton monomials.
  const bf::truth_table parity =
      bf::truth_table::variable(3, 0) ^ bf::truth_table::variable(3, 1) ^
      bf::truth_table::variable(3, 2);
  EXPECT_EQ(backend::pprm(parity).num_terms(), 3);
  EXPECT_EQ(backend::pprm(parity).to_truth_table(), parity);
}

// ---------------------------------------------------------------------------
// Chain engine: known-optimal step counts (Knuth 7.1.2 values)

int chain_steps(const bf::truth_table& f, const std::string& name) {
  const auto engine = backend::make_backend("chain");
  const backend_result result =
      engine->run(make_request(target_spec::from_function(f, name)));
  EXPECT_EQ(result.status, backend_status::solved) << result.detail;
  EXPECT_TRUE(result.optimal);
  EXPECT_TRUE(result.realized->verify(f)) << name;
  return result.cost();
}

TEST(chain_backend, known_optimal_step_counts) {
  const auto a2 = bf::truth_table::variable(2, 0);
  const auto b2 = bf::truth_table::variable(2, 1);
  EXPECT_EQ(chain_steps(a2 & b2, "and2"), 1);
  EXPECT_EQ(chain_steps(a2 | b2, "or2"), 1);
  EXPECT_EQ(chain_steps(a2 ^ b2, "xor2"), 1);
  EXPECT_EQ(chain_steps(~(a2 & b2), "nand2"), 1);

  const auto a = bf::truth_table::variable(3, 0);
  const auto b = bf::truth_table::variable(3, 1);
  const auto c = bf::truth_table::variable(3, 2);
  EXPECT_EQ(chain_steps(a ^ b ^ c, "parity3"), 2);
  // The 3-input majority needs 4 two-input gates (Knuth 7.1.2).
  EXPECT_EQ(chain_steps((a & b) | (a & c) | (b & c), "maj3"), 4);
}

TEST(chain_backend, trivial_targets_cost_zero) {
  const auto engine = backend::make_backend("chain");
  for (const bf::truth_table& f :
       {bf::truth_table::zeros(3), bf::truth_table::ones(3),
        bf::truth_table::variable(3, 1), ~bf::truth_table::variable(3, 2)}) {
    const backend_result result =
        engine->run(make_request(target_spec::from_function(f)));
    EXPECT_EQ(result.status, backend_status::solved);
    EXPECT_EQ(result.cost(), 0);
    EXPECT_TRUE(result.realized->verify(f));
  }
}

TEST(chain_backend, simulation_oracle_matches_manual_chain) {
  // x2 = AND(x0, x1); out = ~x2  ==  NAND.
  backend::boolean_chain chain(2, {{0, 1, 0b1000}}, 2, true);
  const auto expected = ~(bf::truth_table::variable(2, 0) &
                          bf::truth_table::variable(2, 1));
  EXPECT_EQ(chain.simulate(), expected);
  EXPECT_NE(chain.str().find("AND"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Portfolio semantics

TEST(portfolio, all_backends_race_and_winner_is_verified) {
  const target_spec target = small_target();
  synth::portfolio_options options;
  options.base.lm.sat_time_limit_s = 60.0;
  const synth::portfolio_result result =
      synth::run_portfolio(target, options);
  ASSERT_EQ(result.entries.size(), backend::backend_names().size());
  ASSERT_GE(result.winner, 0);
  const backend::backend_result* win = result.winning();
  ASSERT_NE(win, nullptr);
  EXPECT_TRUE(win->definitive());
  EXPECT_TRUE(win->realized->verify(target.function()));
  // Rank rule: nothing before the winner finished definitively.
  for (int i = 0; i < result.winner; ++i) {
    EXPECT_FALSE(result.entries[static_cast<std::size_t>(i)].definitive());
  }
}

TEST(portfolio, compare_mode_runs_every_backend_to_completion) {
  const target_spec target = small_target();
  synth::portfolio_options options;
  options.backends = {"exact6", "esop", "chain"};
  options.race = false;
  options.base.lm.sat_time_limit_s = 60.0;
  const synth::portfolio_result result =
      synth::run_portfolio(target, options);
  ASSERT_EQ(result.entries.size(), 3u);
  for (const backend::backend_result& entry : result.entries) {
    EXPECT_EQ(entry.status, backend_status::solved) << entry.detail;
    EXPECT_TRUE(entry.realized->verify(target.function()));
  }
  // All definitive => the priority rule picks the first requested name.
  EXPECT_EQ(result.winner, 0);
  // maj3 costs in each backend's own unit: lattice switches vs 3 ESOP
  // terms vs 4 chain steps.
  EXPECT_GT(result.entries[0].cost(), 0);
  EXPECT_TRUE(result.entries[0].optimal);
  EXPECT_EQ(result.entries[1].cost(), 3);
  EXPECT_EQ(result.entries[2].cost(), 4);
}

TEST(portfolio, racing_winner_matches_compare_mode) {
  // A definitive entry cancels only the entries ranked after it, so the
  // race never cancels the entry compare mode would pick: the winner is the
  // same on every run, whatever order the four workers finish in.
  const target_spec target = instances::make_table2_instance("c17_01");
  synth::portfolio_options compare;
  compare.race = false;
  compare.base.lm.sat_time_limit_s = 60.0;
  const synth::portfolio_result reference =
      synth::run_portfolio(target, compare);
  int expected = -1;
  for (std::size_t i = 0; i < reference.entries.size(); ++i) {
    if (reference.entries[i].definitive()) {
      expected = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(expected, 0);
  ASSERT_EQ(reference.winner, expected);

  synth::portfolio_options racing;
  racing.jobs = 4;
  racing.base.lm.sat_time_limit_s = 60.0;
  for (int run = 0; run < 20; ++run) {
    const synth::portfolio_result raced = synth::run_portfolio(target, racing);
    EXPECT_EQ(raced.winner, expected) << "run " << run;
  }
}

TEST(portfolio, external_cancellation_cascades) {
  exec::cancel_source source;
  source.request_cancel();
  exec::context ctx;
  ctx.cancel = source.token();
  synth::portfolio_options options;
  options.backends = {"esop", "chain"};
  const synth::portfolio_result result = synth::run_portfolio(
      small_target(), options, deadline::never(), ctx);
  EXPECT_EQ(result.winner, -1);
  for (const backend::backend_result& entry : result.entries) {
    EXPECT_EQ(entry.status, backend_status::cancelled);
  }
}

TEST(portfolio, batch_routes_targets_through_backends) {
  std::vector<target_spec> targets = {
      target_spec::parse(2, "ab", "and2"),
      target_spec::parse(3, "ab + ac + bc", "maj3"),
  };
  synth::batch_options options;
  options.backends = {"esop", "chain"};
  options.jobs = 2;
  options.base.lm.sat_time_limit_s = 60.0;
  const synth::batch_result batch =
      synth::synthesize_batch(targets, options);
  ASSERT_EQ(batch.portfolio.size(), 2u);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.solved, 2);
  for (const synth::portfolio_result& p : batch.portfolio) {
    ASSERT_GE(p.winner, 0);
    EXPECT_TRUE(p.winning()->definitive());
  }
  // ESOP terms / chain steps are not switches.
  EXPECT_EQ(batch.total_switches, 0);
}

TEST(portfolio, unknown_backend_name_throws_typed) {
  synth::portfolio_options options;
  options.backends = {"no-such-engine"};
  EXPECT_THROW(
      { (void)synth::run_portfolio(small_target(), options); }, check_error);
}

// ---------------------------------------------------------------------------
// Portfolio over a Table II slice: the first five rows with <= 6 inputs (the
// chain backend's cap), 2 s budgets, the cross-representation core of the
// registry.

const std::vector<std::string>& slice_backends() {
  static const std::vector<std::string> names = {"janus", "exact6", "esop",
                                                 "chain"};
  return names;
}

constexpr double kSliceBudgetS = 2.0;

std::vector<target_spec> portfolio_slice() {
  std::vector<target_spec> targets;
  for (const instances::table2_row& row : instances::table2_rows()) {
    if (row.inputs <= 6 && targets.size() < 5) {
      targets.push_back(instances::make_table2_instance(row, nullptr, 0));
    }
  }
  return targets;
}

backend_result run_solo(const std::string& name, const target_spec& target,
                        int jobs) {
  backend_request request;
  request.target = target;
  request.dl = deadline::in_seconds(kSliceBudgetS);
  request.jobs = jobs;
  request.base.time_limit_s = kSliceBudgetS;
  request.base.lm.sat_time_limit_s = kSliceBudgetS;
  return backend::make_backend(name)->run(request);
}

synth::portfolio_result run_race(const target_spec& target) {
  synth::portfolio_options options;
  options.backends = slice_backends();
  options.base.time_limit_s = kSliceBudgetS;
  options.base.lm.sat_time_limit_s = kSliceBudgetS;
  return synth::run_portfolio(target, options,
                              deadline::in_seconds(kSliceBudgetS));
}

TEST(portfolio_slice, solo_and_raced_results_are_sound) {
  for (const target_spec& target : portfolio_slice()) {
    const bf::truth_table f = target.function();
    std::map<std::string, backend_result> solo;
    for (const std::string& name : slice_backends()) {
      backend_result run = run_solo(name, target, 1);
      // Every backend is sound: solved or a typed timeout, never `failed`
      // (stricter than "wins a race or is never failed").
      EXPECT_NE(run.status, backend_status::failed)
          << target.name() << " " << name << ": " << run.detail;
      if (run.realized != nullptr) {
        EXPECT_TRUE(run.realized->verify(f)) << target.name() << " " << name;
      }
      if (run.status == backend_status::solved) {
        // Agreement is undefined mid-ladder, so only a solved rerun counts.
        const backend_result rerun = run_solo(name, target, 4);
        if (rerun.status == backend_status::solved) {
          EXPECT_EQ(rerun.cost(), run.cost()) << target.name() << " " << name;
        }
      }
      solo.emplace(name, std::move(run));
    }
    const backend_result& lattice = solo.at("janus");
    const backend_result& exact = solo.at("exact6");
    if (lattice.status == backend_status::solved &&
        exact.status == backend_status::solved && exact.optimal) {
      EXPECT_GE(lattice.cost(), exact.cost()) << target.name();
    }

    const synth::portfolio_result race = run_race(target);
    if (const backend_result* win = race.winning()) {
      EXPECT_TRUE(win->realized->verify(f)) << target.name();
    }
  }
}

// Timing contract, registered as its own serial ctest entry. A definitive
// entry cancels only the entries ranked after it, so every entry ranked at
// or before the winner runs to completion: the race takes as long as the
// slowest of those solo, plus a dispatch allowance. Racing on fewer hardware
// threads than backends serializes the entries, so the bound is only
// meaningful with one thread per backend.
TEST(portfolio_wall, race_within_slowest_solo_ranked_up_to_winner) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < slice_backends().size()) {
    GTEST_SKIP() << hw << " hardware threads < " << slice_backends().size()
                 << " backends";
  }
  for (const target_spec& target : portfolio_slice()) {
    std::vector<double> solo_wall;
    for (const std::string& name : slice_backends()) {
      solo_wall.push_back(run_solo(name, target, 1).seconds);
    }
    const synth::portfolio_result race = run_race(target);
    const std::size_t ranked =
        race.winner >= 0 ? static_cast<std::size_t>(race.winner) + 1
                         : solo_wall.size();
    const auto ranked_end =
        solo_wall.begin() + static_cast<std::ptrdiff_t>(ranked);
    const double reference = *std::max_element(solo_wall.begin(), ranked_end);
    const double allowance = std::max(0.25, 0.25 * reference);
    EXPECT_LE(race.seconds, reference + allowance)
        << target.name() << ": winner rank " << race.winner
        << ", slowest solo up to it " << reference << " s";
  }
}

}  // namespace
}  // namespace janus
