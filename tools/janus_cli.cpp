// janus — command-line front-end for the lattice-synthesis library.
//
//   janus synth  "ab + b'c"            synthesize an SOP expression
//   janus synth  -p file.pla [-o N]    synthesize output N of a PLA (all by
//                                      default, sharing one lattice via MF)
//   janus batch  -p file.pla           synthesize every PLA output as an
//                                      independent target, sharded across
//                                      the worker pool
//   janus map    "ab + c" MxN          decide one lattice-mapping instance
//   janus bounds "ab + c"              print every bound construction
//   janus table1 [max]                 print lattice-function product counts
//   janus compare "ab + c" | -p f.pla  run EVERY synthesis backend to
//                                      completion and print the cost table
//                                      (lattice switches vs ESOP terms vs
//                                      chain steps)
//
// Common flags:
//   -t SECONDS     overall time limit (default 60)
//   -s SECONDS     per-SAT-call limit (default 10)
//   -j N, --jobs N worker threads (default 1: fully sequential). N >= 2
//                  enables the dichotomic probe fan-out and batch sharding
//                  on one pool of N workers.
//   --inprocess / --no-inprocess
//                  SAT inprocessing (level-0 cleanup, learnt-clause
//                  vivification; default: on). See docs/solver.md.
//   --stats        print the aggregated SAT solver counters after the run
//   --cache FILE   persist the NP-canonical solution cache: load FILE when it
//                  exists, save it back after the run — repeated runs answer
//                  solved classes without resynthesis
//   --no-cache     disable solution reuse entirely (also in-memory)
//   -m janus|exact6|approx6|heur11|pc9 algorithm (default: janus)
//   --backend NAME|portfolio
//                  route synth/batch through a registered synthesis backend
//                  (janus, janus-mf, exact6, approx6, esop, chain), or race
//                  them all per target ("portfolio"); overrides -m. See
//                  docs/backends.md.
//   -q / -v        quiet / verbose logging
//
// Durations must be finite decimals (no trailing junk); an unknown flag,
// method or a malformed value (map dimensions included) exits 2 with the
// usage line. The full reference lives in
// docs/cli.md.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "bf/pla.hpp"
#include "cache/solution_cache.hpp"
#include "exec/exec.hpp"
#include "service/signals.hpp"
#include "synth/baselines.hpp"
#include "synth/batch.hpp"
#include "synth/janus.hpp"
#include "synth/janus_mf.hpp"
#include "synth/portfolio.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace {

using janus::lm::target_spec;

/// Ctrl-C cancellation: the signal watcher fires this source, every engine
/// constructed through make_options() carries its token, and the in-flight
/// SAT solvers unwind cooperatively — so commands return through their normal
/// paths and the cli_cache_scope destructor can persist the solution store
/// instead of losing the session's entries to an abrupt exit.
janus::exec::cancel_source g_interrupt;

/// Accepted range of the -t / -s budgets, in seconds.
constexpr double kMinSeconds = 0.001;
constexpr double kMaxSeconds = 1e7;

/// The algorithms `-m` selects (run_method dispatches on these names).
constexpr const char* kMethods[] = {"janus", "exact6", "approx6", "heur11",
                                    "pc9"};

struct cli_config {
  double time_limit = 60.0;
  double sat_limit = 10.0;
  int jobs = 1;
  /// synth/bounds: the one pool of `jobs` workers every engine of the
  /// command shares (null at -j 1). batch owns its pool through
  /// batch_options::jobs; compare runs its rows inline.
  janus::exec::thread_pool* pool = nullptr;
  bool inprocess = true;
  bool show_stats = false;
  bool use_cache = true;       ///< in-memory NP-canonical solution reuse
  std::string cache_path;      ///< optional on-disk persistence (--cache)
  std::string method = "janus";
  std::string backend;  ///< --backend: a registered name or "portfolio"
  std::string pla_path;
  int pla_output = -1;
  std::vector<std::string> positional;
};

int usage() {
  std::fprintf(stderr,
               "usage: janus <synth|batch|map|bounds|table1|compare> [args] "
               "[-p file.pla] [-o N] [-t sec] [-s sec] [-j jobs] [-m method] "
               "[--backend name|portfolio] "
               "[--inprocess|--no-inprocess] [--stats] "
               "[--cache file|--no-cache] [-q|-v]\n");
  return 2;
}

int parse_vars(const std::string& text) {
  int num_vars = 0;
  for (const char ch : text) {
    if (ch >= 'a' && ch <= 'z') {
      num_vars = std::max(num_vars, ch - 'a' + 1);
    }
  }
  return num_vars;
}

janus::sat::solver_options make_solver_options(const cli_config& cfg) {
  janus::sat::solver_options o = janus::lm::default_lm_solver_options();
  o.inprocess = cfg.inprocess;
  return o;
}

janus::synth::janus_options make_options(const cli_config& cfg) {
  janus::synth::janus_options o;
  o.time_limit_s = cfg.time_limit;
  o.lm.sat_time_limit_s = cfg.sat_limit;
  o.lm.solver = make_solver_options(cfg);
  o.exec = {cfg.pool, g_interrupt.token()};
  return o;
}

void print_solver_stats(const janus::sat::solver_stats& s) {
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf(
      "solver: %llu conflicts, %llu decisions, %llu propagations, "
      "%llu restarts\n"
      "        %llu learned, %llu removed, %llu minimized lits\n"
      "        inprocessing: %llu vivified\n",
      u(s.conflicts), u(s.decisions), u(s.propagations), u(s.restarts),
      u(s.learned_clauses), u(s.removed_clauses), u(s.minimized_literals),
      u(s.vivified));
}

/// The command's solution store: loads `--cache FILE` on construction when
/// the file exists, saves it back on request. `get()` is null under
/// `--no-cache`. One scope per command — synth/MF outputs and batch targets
/// all share it.
class cli_cache_scope {
 public:
  explicit cli_cache_scope(const cli_config& cfg) : cfg_(cfg) {
    if (cfg_.use_cache && !cfg_.cache_path.empty() &&
        store_.load_file(cfg_.cache_path)) {
      std::fprintf(stderr, "janus: loaded %zu cached solution classes from %s\n",
                   store_.size(), cfg_.cache_path.c_str());
    }
  }

  /// Persist on every exit path — early returns, check_error unwinds, and
  /// the cooperative Ctrl-C cancellation — not just the happy path's
  /// explicit save(). save_file is atomic (tmp + rename), so an interrupt
  /// landing mid-save can clip the tmp file but never the store itself.
  ~cli_cache_scope() {
    if (saved_) {
      return;
    }
    // A destructor must not throw (it may run while a check_error unwinds):
    // report a failed save instead.
    try {
      save();
    } catch (const janus::check_error& e) {
      std::fprintf(stderr, "janus: %s\n", e.what());
    }
  }

  [[nodiscard]] janus::cache::solution_cache* get() {
    return cfg_.use_cache ? &store_ : nullptr;
  }

  void save() {
    if (cfg_.use_cache && !cfg_.cache_path.empty()) {
      saved_ = true;  // set first: a failed save is not retried on unwind
      store_.save_file(cfg_.cache_path);
    }
  }

  void print_stats() const {
    if (!cfg_.use_cache) {
      return;
    }
    const auto s = store_.stats();
    std::printf("cache: %llu hits, %llu misses, %llu stored (%zu classes)\n",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.stores), store_.size());
  }

 private:
  const cli_config& cfg_;
  janus::cache::solution_cache store_;
  bool saved_ = false;
};

janus::synth::janus_result run_method(const cli_config& cfg,
                                      const target_spec& target,
                                      janus::cache::solution_cache* store) {
  auto base = make_options(cfg);
  if (cfg.method == "exact6") {
    janus::synth::janus_synthesizer e(janus::synth::exact6_options(base));
    return e.run(target);
  }
  if (cfg.method == "approx6") {
    janus::synth::janus_synthesizer e(janus::synth::approx6_options(base));
    return e.run(target);
  }
  if (cfg.method == "heur11") {
    return janus::synth::run_heuristic11(target, base);
  }
  if (cfg.method == "pc9") {
    return janus::synth::run_pcircuit9(target, base);
  }
  // Only the default JANUS pipeline reads/writes the store: the baselines
  // converge to method-specific sizes that must not cross-contaminate it.
  base.solutions = store;
  janus::synth::janus_synthesizer e(base);
  return e.run(target);
}

/// Targets for synth/batch: every selected PLA output, or the one parsed
/// expression. Empty on error (message already printed).
std::vector<target_spec> collect_targets(const cli_config& cfg) {
  std::vector<target_spec> targets;
  if (!cfg.pla_path.empty()) {
    std::ifstream in(cfg.pla_path);
    if (!in) {
      std::fprintf(stderr, "janus: cannot open %s\n", cfg.pla_path.c_str());
      return targets;
    }
    const auto pla = janus::bf::read_pla(in);
    for (int o = 0; o < pla.num_outputs; ++o) {
      if (cfg.pla_output >= 0 && o != cfg.pla_output) {
        continue;
      }
      const std::string name =
          pla.output_names.empty() ? "out" + std::to_string(o)
                                   : pla.output_names[static_cast<std::size_t>(o)];
      targets.push_back(target_spec::from_function(pla.onset(o), name));
    }
    if (targets.empty()) {
      std::fprintf(stderr, "janus: no outputs selected from %s (%d outputs%s)\n",
                   cfg.pla_path.c_str(), pla.num_outputs,
                   cfg.pla_output >= 0 ? ", -o out of range" : "");
    }
  } else if (!cfg.positional.empty()) {
    const std::string& text = cfg.positional[0];
    targets.push_back(target_spec::parse(parse_vars(text), text, "f"));
  }
  return targets;
}

/// The backend names `--backend` selects: one registered name, or every
/// registered backend in priority order for "portfolio" (and for compare
/// mode's default).
std::vector<std::string> backend_selection(const cli_config& cfg) {
  if (cfg.backend.empty() || cfg.backend == "portfolio") {
    return janus::backend::backend_names();
  }
  return {cfg.backend};
}

/// One row per backend: status, cost in the backend's own unit, optimality,
/// wall time, and the realization summary. Marks the portfolio winner.
void print_portfolio_table(const janus::synth::portfolio_result& p) {
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    const auto& e = p.entries[i];
    std::string cost = "-";
    if (e.realized != nullptr) {
      cost = std::to_string(e.realized->cost()) + " " + e.realized->cost_unit();
    }
    std::printf("  %-9s %-9s %-12s %s%6.2fs%s%s\n", e.backend.c_str(),
                janus::backend::backend_status_name(e.status), cost.c_str(),
                e.optimal ? "optimal  " : "         ", e.seconds,
                static_cast<int>(i) == p.winner ? "  << winner" : "",
                e.detail.empty() ? "" : ("  [" + e.detail + "]").c_str());
  }
}

/// `synth --backend ...`: race (or solo-run) the selected backends on each
/// target and print the winner's realization.
int run_synth_backends(const cli_config& cfg,
                       const std::vector<target_spec>& targets) {
  int solved = 0;
  for (const auto& target : targets) {
    janus::synth::portfolio_options o;
    o.backends = backend_selection(cfg);
    o.base = make_options(cfg);
    const auto p = janus::synth::run_portfolio(
        target, o, janus::deadline::in_seconds(cfg.time_limit), o.base.exec);
    std::printf("%s:\n", target.name().c_str());
    print_portfolio_table(p);
    const auto* win = p.winning();
    if (win == nullptr) {
      std::fprintf(stderr, "janus: no backend solved %s within the budget\n",
                   target.name().c_str());
      continue;
    }
    ++solved;
    std::printf("  %s\n", win->realized->describe().c_str());
    if (cfg.show_stats) {
      for (const auto& e : p.entries) {
        print_solver_stats(e.sat);
      }
    }
  }
  return solved == static_cast<int>(targets.size()) ? 0 : 1;
}

int cmd_synth(const cli_config& cfg) {
  if (cfg.pla_path.empty() && cfg.positional.empty()) {
    return usage();
  }
  std::vector<target_spec> targets = collect_targets(cfg);
  if (targets.empty()) {
    return 1;
  }
  if (!cfg.backend.empty()) {
    return run_synth_backends(cfg, targets);
  }

  cli_cache_scope cache(cfg);
  if (targets.size() == 1) {
    const auto r = run_method(cfg, targets[0], cache.get());
    if (!r.solution.has_value()) {
      std::fprintf(stderr, "janus: no solution within the budget\n");
      return 1;
    }
    cache.save();
    std::printf("%s: %s (%d switches), lb=%d nub=%d, %.2fs%s%s\n",
                targets[0].name().c_str(), r.solution_dims().c_str(),
                r.solution_size(), r.lower_bound, r.new_upper_bound,
                r.seconds, r.hit_time_limit ? " [time limit]" : "",
                r.from_cache ? " [cache]" : "");
    if (cfg.show_stats) {
      print_solver_stats(r.sat_totals);
    }
    std::printf("%s", r.solution->str().c_str());
    return 0;
  }
  auto mf_options = make_options(cfg);
  mf_options.solutions = cache.get();
  const auto mf = janus::synth::run_janus_mf(targets, mf_options);
  cache.save();
  std::printf("straight-forward: %s (%d switches)\n",
              mf.straightforward.grid().grid().str().c_str(),
              mf.straightforward_size());
  std::printf("JANUS-MF:         %s (%d switches)%s\n",
              mf.improved.grid().grid().str().c_str(), mf.improved_size(),
              mf.hit_time_limit ? " [time limit]" : "");
  cache.print_stats();
  std::printf("%s", mf.improved.grid().str().c_str());
  for (int o = 0; o < mf.improved.num_outputs(); ++o) {
    const auto [first, last] = mf.improved.span(o);
    std::printf("output %-10s columns %d..%d\n", targets[static_cast<std::size_t>(o)].name().c_str(),
                first, last);
  }
  return 0;
}

int cmd_batch(const cli_config& cfg) {
  if (cfg.pla_path.empty()) {
    std::fprintf(stderr, "janus: batch mode needs -p file.pla\n");
    return usage();
  }
  const std::vector<target_spec> targets = collect_targets(cfg);
  if (targets.empty()) {
    return 1;
  }
  cli_cache_scope cache(cfg);
  janus::synth::batch_options o;
  o.base = make_options(cfg);
  o.base.solutions = cache.get();
  o.jobs = cfg.jobs;
  // -t stays the *overall* limit, as documented; targets starting late get
  // whatever remains of it (per-target limit defaults to the same value).
  o.total_time_limit_s = cfg.time_limit;
  if (!cfg.backend.empty()) {
    o.backends = backend_selection(cfg);
  }
  const auto b = janus::synth::synthesize_batch(targets, o);
  cache.save();
  if (!cfg.backend.empty()) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const auto& p = b.portfolio[i];
      const auto* win = p.winning();
      if (win != nullptr) {
        std::printf("%-12s %-9s %4d %-8s %6.2fs\n", targets[i].name().c_str(),
                    win->backend.c_str(), win->realized->cost(),
                    win->realized->cost_unit(), p.seconds);
      } else {
        std::printf("%-12s %-9s %s\n", targets[i].name().c_str(), "-",
                    "no backend finished within the budget");
      }
    }
    std::printf("batch: %d/%zu solved, %llu conflicts, %.2fs wall (jobs=%d)\n",
                b.solved, targets.size(),
                static_cast<unsigned long long>(b.solver_totals.conflicts),
                b.seconds, cfg.jobs);
    if (cfg.show_stats) {
      print_solver_stats(b.solver_totals);
    }
    return b.solved == static_cast<int>(targets.size()) ? 0 : 1;
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& r = b.results[i];
    std::printf("%-12s %7s  %3d switches  lb=%-3d nub=%-3d %6.2fs%s%s\n",
                targets[i].name().c_str(), r.solution_dims().c_str(),
                r.solution_size(), r.lower_bound, r.new_upper_bound, r.seconds,
                r.hit_time_limit ? " [time limit]" : "",
                r.from_cache ? " [cache]" : "");
  }
  std::printf(
      "batch: %d/%zu solved, %d switches total, %llu probes (%llu pruned), "
      "%llu conflicts, %llu propagations, %.2fs wall (jobs=%d), "
      "cache: %llu hits / %llu misses\n",
      b.solved, targets.size(), b.total_switches,
      static_cast<unsigned long long>(b.total_probes),
      static_cast<unsigned long long>(b.pruned_probes),
      static_cast<unsigned long long>(b.solver_totals.conflicts),
      static_cast<unsigned long long>(b.solver_totals.propagations), b.seconds,
      cfg.jobs,
      static_cast<unsigned long long>(b.cache_hits),
      static_cast<unsigned long long>(b.cache_misses));
  if (cfg.show_stats) {
    print_solver_stats(b.solver_totals);
  }
  return b.solved == static_cast<int>(targets.size()) ? 0 : 1;
}

int cmd_map(const cli_config& cfg) {
  if (cfg.positional.size() != 2) {
    return usage();
  }
  const std::string& text = cfg.positional[0];
  // Strict MxN: two counts and nothing else ("2x2junk" is rejected).
  const std::string& spec = cfg.positional[1];
  const std::size_t x = spec.find('x');
  const std::optional<int> parsed_rows =
      x == std::string::npos ? std::nullopt
                             : janus::parse_count(spec.substr(0, x), 1, 1024);
  const std::optional<int> parsed_cols =
      x == std::string::npos ? std::nullopt
                             : janus::parse_count(spec.substr(x + 1), 1, 1024);
  if (!parsed_rows.has_value() || !parsed_cols.has_value()) {
    std::fprintf(stderr, "janus: bad dimensions '%s' (want MxN)\n",
                 spec.c_str());
    return usage();
  }
  const int rows = *parsed_rows;
  const int cols = *parsed_cols;
  const auto target = target_spec::parse(parse_vars(text), text, "f");
  janus::lm::lattice_info_cache cache;
  janus::lm::lm_options o;
  o.sat_time_limit_s = cfg.sat_limit;
  o.solver = make_solver_options(cfg);
  const auto r = janus::lm::solve_lm(
      target, cache.get({rows, cols}), o,
      janus::deadline::in_seconds(cfg.time_limit));
  if (cfg.show_stats) {
    print_solver_stats(r.solver);
  }
  switch (r.status) {
    case janus::lm::lm_status::realizable:
      std::printf("realizable on %dx%d%s:\n%s", rows, cols,
                  r.used_dual_problem ? " (via the dual problem)" : "",
                  r.mapping->str().c_str());
      return 0;
    case janus::lm::lm_status::unrealizable:
      std::printf("not realizable on %dx%d\n", rows, cols);
      return 1;
    case janus::lm::lm_status::unknown:
      std::printf("undecided within the budget\n");
      return 3;
    case janus::lm::lm_status::skipped:
      std::printf("lattice too large to encode (path cap)\n");
      return 3;
    case janus::lm::lm_status::cancelled:
      std::printf("cancelled\n");
      return 3;
  }
  return 3;
}

int cmd_bounds(const cli_config& cfg) {
  if (cfg.positional.empty()) {
    return usage();
  }
  const std::string& text = cfg.positional[0];
  const auto target = target_spec::parse(parse_vars(text), text, "f");
  janus::synth::janus_synthesizer engine(make_options(cfg));
  const auto b = engine.compute_bounds(
      target, janus::deadline::in_seconds(cfg.time_limit));
  std::printf("lower bound: %d\n", b.lower_bound);
  for (const auto& sol : b.methods) {
    std::printf("%-5s %s = %d switches\n", sol.method.c_str(),
                sol.mapping.grid().str().c_str(), sol.size());
  }
  return 0;
}

/// Every selected backend runs to completion (no racing, no cancellation),
/// so the table is fully reproducible: each row is that backend's
/// standalone deterministic result for the target.
int cmd_compare(const cli_config& cfg) {
  if (cfg.pla_path.empty() && cfg.positional.empty()) {
    return usage();
  }
  const std::vector<target_spec> targets = collect_targets(cfg);
  if (targets.empty()) {
    return 1;
  }
  int with_winner = 0;
  for (const auto& target : targets) {
    janus::synth::portfolio_options o;
    o.backends = backend_selection(cfg);
    o.base = make_options(cfg);
    o.race = false;  // the whole point: comparable, reproducible rows
    const auto p = janus::synth::run_portfolio(
        target, o, janus::deadline::in_seconds(cfg.time_limit), o.base.exec);
    std::printf("%s (%d vars):\n", target.name().c_str(), target.num_vars());
    print_portfolio_table(p);
    if (p.winner >= 0) {
      ++with_winner;
    }
  }
  return with_winner == static_cast<int>(targets.size()) ? 0 : 1;
}

int cmd_table1(const cli_config& cfg) {
  // Strict parse (atoi maps garbage to 0); out-of-range input clamps to
  // the paper's 2..8. Beyond 8 the path counts, and the time to count
  // them, grow about 77-fold per step.
  int max = 8;
  if (!cfg.positional.empty()) {
    max = janus::parse_int(cfg.positional[0], -1'000'000, 1'000'000)
              .value_or(8);
  }
  max = std::max(2, std::min(max, 8));
  for (int m = 2; m <= max; ++m) {
    for (int n = 2; n <= max; ++n) {
      std::printf("%10llu/%llu",
                  static_cast<unsigned long long>(janus::lattice::count_paths(
                      {m, n}, janus::lattice::connectivity::four_top_bottom)),
                  static_cast<unsigned long long>(janus::lattice::count_paths(
                      {m, n}, janus::lattice::connectivity::eight_left_right)));
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  cli_config cfg;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "-t" || arg == "-s") {
      const char* v = next();
      const std::optional<double> seconds =
          v == nullptr ? std::nullopt
                       : janus::parse_seconds(v, kMinSeconds, kMaxSeconds);
      if (!seconds.has_value()) return usage();
      (arg == "-t" ? cfg.time_limit : cfg.sat_limit) = *seconds;
    } else if (arg == "-j" || arg == "--jobs") {
      const char* v = next();
      const std::optional<int> jobs =
          v == nullptr ? std::nullopt : janus::parse_count(v, 1, 4096);
      if (!jobs.has_value()) return usage();
      cfg.jobs = *jobs;
    } else if (arg == "--inprocess") {
      cfg.inprocess = true;
    } else if (arg == "--no-inprocess") {
      cfg.inprocess = false;
    } else if (arg == "--stats") {
      cfg.show_stats = true;
    } else if (arg == "--cache") {
      const char* v = next();
      if (v == nullptr) return usage();
      cfg.cache_path = v;
      cfg.use_cache = true;
    } else if (arg == "--no-cache") {
      cfg.use_cache = false;
      cfg.cache_path.clear();
    } else if (arg == "-m") {
      const char* v = next();
      if (v == nullptr) return usage();
      cfg.method = v;
      if (std::find(std::begin(kMethods), std::end(kMethods), cfg.method) ==
          std::end(kMethods)) {
        std::fprintf(stderr, "janus: unknown method '%s' (known:", v);
        for (const char* name : kMethods) {
          std::fprintf(stderr, " %s", name);
        }
        std::fprintf(stderr, ")\n");
        return usage();
      }
    } else if (arg == "--backend") {
      const char* v = next();
      if (v == nullptr) return usage();
      cfg.backend = v;
      if (cfg.backend != "portfolio" &&
          !janus::backend::is_backend_name(cfg.backend)) {
        std::fprintf(stderr, "janus: unknown backend '%s' (known:", v);
        for (const auto& name : janus::backend::backend_names()) {
          std::fprintf(stderr, " %s", name.c_str());
        }
        std::fprintf(stderr, " portfolio)\n");
        return 2;
      }
    } else if (arg == "-p") {
      const char* v = next();
      if (v == nullptr) return usage();
      cfg.pla_path = v;
    } else if (arg == "-o") {
      const char* v = next();
      const std::optional<int> output =
          v == nullptr ? std::nullopt : janus::parse_int(v, -1, 1 << 20);
      if (!output.has_value()) return usage();
      cfg.pla_output = *output;
    } else if (arg == "-q") {
      janus::set_log_level(janus::log_level::off);
    } else if (arg == "-v") {
      janus::set_log_level(janus::log_level::info);
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "janus: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      cfg.positional.push_back(arg);
    }
  }
  std::unique_ptr<janus::exec::thread_pool> pool;
  if (cfg.jobs > 1 && (command == "synth" || command == "bounds")) {
    pool = std::make_unique<janus::exec::thread_pool>(
        static_cast<std::size_t>(cfg.jobs));
    cfg.pool = pool.get();
  }
  // First Ctrl-C cancels the in-flight synthesis cooperatively (the command
  // unwinds and cli_cache_scope persists the store); SA_RESETHAND means a
  // second Ctrl-C kills the process the old-fashioned way.
  janus::service::signal_watcher signals(
      {SIGINT, SIGTERM}, [](int) { g_interrupt.request_cancel(); });
  const auto finish = [&](int code) {
    if (signals.fired() != 0) {
      std::fprintf(stderr, "janus: interrupted — cache state persisted\n");
      return 128 + signals.fired();
    }
    return code;
  };
  try {
    if (command == "synth") return finish(cmd_synth(cfg));
    if (command == "batch") return finish(cmd_batch(cfg));
    if (command == "map") return finish(cmd_map(cfg));
    if (command == "bounds") return finish(cmd_bounds(cfg));
    if (command == "table1") return finish(cmd_table1(cfg));
    if (command == "compare") return finish(cmd_compare(cfg));
  } catch (const janus::check_error& e) {
    std::fprintf(stderr, "janus: %s\n", e.what());
    return finish(1);
  }
  return usage();
}
