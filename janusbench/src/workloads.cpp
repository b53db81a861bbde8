#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "backend/backend.hpp"
#include "bf/pla.hpp"
#include "cache/solution_cache.hpp"
#include "harness.hpp"
#include "lm/encoding.hpp"
#include "lm/lattice_info.hpp"
#include "lm/lm_session.hpp"
#include "lm/lm_solver.hpp"
#include "service/json_value.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "synth/batch.hpp"
#include "synth/bounds.hpp"
#include "synth/janus.hpp"
#include "synth/portfolio.hpp"
#include "util/json_writer.hpp"

#ifndef JANUSBENCH_BUILD_TYPE
#define JANUSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef JANUSBENCH_COMPILER
#define JANUSBENCH_COMPILER "unknown"
#endif

namespace janusbench {
namespace {

using janus::bf::truth_table;
using janus::lm::target_spec;
namespace synth = janus::synth;
namespace service = janus::service;

// Batch set-up is repeated for this long before every pass (see setup_block).
constexpr double kSetupBlockS = 0.25;
constexpr int kSetupReps = 51;  // service setup_s: median of this many set-ups
constexpr int kMinPasses = 3;   // a run measures at least this many passes
constexpr int kJobs = 4;        // batch pool and set-up width (nproc)
constexpr double kPortfolioBudgetS = 30.0;
constexpr double kSoloBudgetS = 1.5;  // traced per-backend solo runs

// janusd engine shape: 3 workers plus the generator thread fill 4 cores.
constexpr int kWorkers = 3;
constexpr std::size_t kQueueCapacity = 64;
// Fixed open-loop rate, about 40% of the ~80 rps the 3 workers sustain on
// this mix (4-core host), so queueing shows in the tail before capacity
// moves.
constexpr double kRatePerS = 30.0;
constexpr std::size_t kBurst = 150;  // requests per saturation pass

// ---- result document --------------------------------------------------------

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

struct result {
  std::vector<metric> metrics;  ///< the contract metrics of this mode
  std::vector<metric> extra;    ///< workload-specific, document only
  std::set<std::string> failed_ops;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::string failed_base;
  std::string outputs = "[]";  ///< raw JSON, checked against the reference
  std::string report;          ///< raw JSON object: traced-run attribution

  void add(std::string name, double v, std::string unit, std::size_t n,
           std::string note = {}) {
    metrics.push_back({std::move(name), v, std::move(unit), n, std::move(note)});
  }
  void add_extra(std::string name, double v, std::string unit, std::size_t n,
                 std::string note = {}) {
    extra.push_back({std::move(name), v, std::move(unit), n, std::move(note)});
  }
  void fail(const std::string& op, const std::string& why) {
    failed_ops.insert(op);
    if (failures.size() < 50) {
      failures.push_back(op + ": " + why);
    }
  }
};

void write_metrics(janus::util::json_writer& w, const std::vector<metric>& ms) {
  w.begin_object();
  for (const metric& m : ms) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value, 9);
    w.field("unit", m.unit).field("samples", m.samples);
    if (!m.note.empty()) {
      w.field("note", m.note);
    }
    w.end_object();
  }
  w.end_object();
}

std::string document(const run_options& o, const result& r) {
  janus::util::json_writer w(2);
  w.begin_object().field("benchmark", "janusbench");
  w.key("provenance")
      .begin_object()
      .field("rev", o.rev)
      .field("build_type", JANUSBENCH_BUILD_TYPE)
      .field("compiler", JANUSBENCH_COMPILER)
      .field("hardware_threads", std::thread::hardware_concurrency())
      .field("seed", o.seed)
      .field("workload", o.workload)
      .field("trace", o.trace);
  w.key("run_seconds").value(o.seconds, 3);
  w.end_object();
  w.field("correct", r.failed_ops.empty())
      .field("attempted", r.attempted)
      .field("failed", r.failed_ops.size())
      .field("failed_base", r.failed_base);
  w.key("failed_ratio")
      .value(r.attempted > 0 ? static_cast<double>(r.failed_ops.size()) /
                                   static_cast<double>(r.attempted)
                             : 0.0,
             6);
  w.key("failures").begin_array();
  for (const std::string& f : r.failures) {
    w.value(f);
  }
  w.end_array();
  w.key("metrics");
  write_metrics(w, r.metrics);
  w.key("extra");
  write_metrics(w, r.extra);
  w.key("outputs").raw(r.outputs);
  if (!r.report.empty()) {
    w.key("report").raw(r.report);
  }
  w.end_object();
  return w.str() + "\n";
}

// ---- shared helpers ----------------------------------------------------------

/// Progress line on stderr, stamped with seconds since start.
void progress(const std::string& what) {
  std::fprintf(stderr, "[janusbench %7.2fs] %s\n", now_s(), what.c_str());
}

std::vector<target_spec> build_specs(const batch_inputs& in) {
  std::vector<target_spec> specs;
  specs.reserve(in.tables.size());
  for (std::size_t i = 0; i < in.tables.size(); ++i) {
    specs.push_back(target_spec::from_function(in.tables[i], in.names[i]));
  }
  return specs;
}

/// One setup_s sample of a batch workload: kJobs threads each build every
/// target_spec over and over for kSetupBlockS (at least twice); the sample
/// is the mean time of one build of the set on one thread. Building on every
/// vCPU at once times set-up at the same loaded core speed as the passes
/// (see run_bounds). One block runs before every pass, so set-up is sampled
/// across the whole run and sees the same host drift as the passes.
std::vector<target_spec> setup_block(const batch_inputs& in,
                                     std::vector<double>& samples) {
  std::vector<target_spec> specs;
  std::vector<int> reps(kJobs, 0);
  std::vector<double> busy(kJobs, 0.0);
  const double t0 = now_s();
  const auto builder = [&](int t) {
    while (reps[t] < 2 || now_s() - t0 < kSetupBlockS) {
      std::vector<target_spec> built = build_specs(in);
      if (t == 0) {
        specs = std::move(built);
      }
      ++reps[t];
    }
    busy[t] = now_s() - t0;
  };
  std::vector<std::thread> others;
  for (int t = 1; t < kJobs; ++t) {
    others.emplace_back(builder, t);
  }
  builder(0);
  for (std::thread& t : others) {
    t.join();
  }
  double busy_s = 0.0;
  int builds = 0;
  for (int t = 0; t < kJobs; ++t) {
    busy_s += busy[t];
    builds += reps[t];
  }
  samples.push_back(busy_s / builds);
  return specs;
}

void add_setup(result& r, const std::vector<double>& samples) {
  r.add("setup_s", median(samples), "s", samples.size(),
        "building each target_spec from the generated tables, 4 builds at "
        "once: median over passes of the mean build in the block before each "
        "pass");
}

/// Run passes until the next one would overrun `seconds` (at least
/// kMinPasses).
template <typename Pass>
int repeat_passes(double seconds, Pass&& pass) {
  const double start = now_s();
  double last = 0.0;
  int n = 0;
  while (n < kMinPasses || now_s() - start + last <= seconds) {
    const double t0 = now_s();
    pass(n);
    last = now_s() - t0;
    ++n;
  }
  return n;
}

/// Target indices, longest first by `ms` (ties keep index order).
std::vector<std::size_t> longest_first(const std::vector<double>& ms) {
  std::vector<std::size_t> order(ms.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return ms[a] > ms[b]; });
  return order;
}

struct pass_samples {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> latency_ms;
  std::vector<double> rss_mb;  ///< peak resident set of each pass
};

void add_pass_metrics(result& r, const pass_samples& p, const char* op) {
  r.add("wall_s", median(p.wall), "s", p.wall.size(),
        "median wall of one pass over the target set");
  r.add("cpu_s", median(p.cpu), "s", p.cpu.size(),
        "median process user+sys CPU of one pass");
  // The process-wide peak is the largest of the passes' peaks, and which
  // probes overlap in a jobs=4 pass varies, so its spread is that of a
  // maximum; each pass's own peak (heap trimmed and peak reset before it)
  // gives a median.
  r.add("peak_rss_mb", median(p.rss_mb), "MB", p.rss_mb.size(),
        "median over passes of the peak resident set during the pass");
  // Per-target latency is document only: with a dozen fixed targets its
  // median is one or two targets' time, which spreads past any bound.
  const summary s = summarize(p.latency_ms);
  r.add_extra("latency_p50_ms", s.p50, "ms", s.n, std::string("per ") + op);
  r.add_extra("latency_tail_ms", s.tail, "ms", s.n,
              "p" + std::to_string(s.tail_pct) + " per " + op);
}

template <typename F>
double seconds_of(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Exact jobs=1 / jobs=4 ladder checks shared by the ladder workload and
/// the reference pass.
void check_ladder(result& r, const std::string& op, const truth_table& f,
                  const synth::janus_result& res) {
  if (!res.solution.has_value()) {
    r.fail(op, "no solution");
    return;
  }
  if (!res.solution->realizes(f)) {
    r.fail(op, "reported lattice does not realize the target");
  }
  if (res.hit_time_limit) {
    r.fail(op, "hit_time_limit");
  }
  for (const synth::probe_record& p : res.probes) {
    if (p.status == janus::lm::lm_status::unknown) {
      r.fail(op, "unknown probe at " + p.d.str());
    }
  }
}

synth::batch_options portfolio_batch(int jobs) {
  synth::batch_options o;
  o.jobs = jobs;
  o.backends = janus::backend::backend_names();
  o.base.time_limit_s = kPortfolioBudgetS;
  o.base.lm.sat_time_limit_s = kPortfolioBudgetS;
  return o;
}

// ---- the layer sweep (traced runs) -------------------------------------------
//
// For every target of the workload, time the public entry point of each layer
// from outside: parse, minimize, bound constructions, lower bound, oracle,
// canonicalize/store/lookup, path enumeration, scratch encoding and one
// budgeted SAT solve. These are the per-layer metrics every workload reports.

struct sweep_stats {
  std::map<std::string, std::vector<double>> ms;  ///< span name -> per call
  std::map<int, std::vector<double>> canon_ms_by_n;
  std::vector<double> paths;
  std::vector<double> clauses;
  std::vector<double> props_per_s;
  double load_s = 0.0;
};

template <typename F>
auto timed(tracer& tr, sweep_stats& st, const char* name, F&& f) {
  const int id = tr.open(name);
  const double t0 = now_s();
  auto out = f();
  const double dt = now_s() - t0;
  tr.close(id);
  st.ms[name].push_back(dt * 1e3);
  return out;
}

std::string pla_text(const target_spec& t) {
  std::ostringstream text;
  janus::bf::write_pla(text, janus::bf::to_pla({t.sop()}));
  return text.str();
}

/// `main_call` runs the workload's own entry point inside the target span.
void sweep_target(tracer& tr, sweep_stats& st, result& r,
                  janus::cache::solution_cache& store, const std::string& name,
                  const truth_table& f,
                  const std::function<void(const target_spec&)>& main_call) {
  tracer::scope target_span(tr, "bench.target", name);
  const std::string op = "sweep " + name;
  const target_spec spec = timed(tr, st, "bf.minimize", [&] {
    return target_spec::from_function(f, name);
  });
  if (main_call) {
    main_call(spec);
  }
  const std::string text = pla_text(spec);
  const janus::bf::pla_file pla =
      timed(tr, st, "bf.pla_parse", [&] { return janus::bf::read_pla_string(text); });
  if (pla.onset(0) != f) {
    r.fail(op, "PLA round trip changed the function");
  }
  service::protocol_limits limits;
  limits.max_vars = 8;
  const std::string line = table_line(name, f);
  const service::parse_outcome parsed = timed(
      tr, st, "service.parse", [&] { return service::parse_request(line, limits); });
  if (!parsed.req.has_value()) {
    r.fail(op, "parse_request rejected: " + parsed.error);
  }

  janus::lm::lattice_info_cache cache;
  synth::janus_synthesizer engine{synth::janus_options{}};
  const janus::lm::lm_options lm_opts;
  std::vector<std::optional<synth::bound_solution>> ubs;
  ubs.push_back(timed(tr, st, "synth.ub.dp", [&] { return synth::build_dp(spec); }));
  ubs.push_back(timed(tr, st, "synth.ub.ps", [&] { return synth::build_ps(spec); }));
  ubs.push_back(timed(tr, st, "synth.ub.dps", [&] { return synth::build_dps(spec); }));
  ubs.push_back(timed(tr, st, "synth.ub.ips", [&] {
    return synth::build_ips(spec, cache, lm_opts);
  }));
  ubs.push_back(timed(tr, st, "synth.ub.idps", [&] { return synth::build_idps(spec); }));
  ubs.push_back(timed(tr, st, "synth.ub.ds", [&] {
    return engine.divide_and_synthesize(spec, janus::deadline::never(), 1);
  }));
  const synth::bound_solution* best = nullptr;
  for (const auto& ub : ubs) {
    if (ub.has_value() && (best == nullptr || ub->size() < best->size())) {
      best = &*ub;
    }
  }
  if (best == nullptr) {
    r.fail(op, "no bound construction succeeded");
    return;
  }
  const int lb = timed(tr, st, "synth.lb", [&] {
    return synth::lower_bound_structural(spec, cache, best->size());
  });
  const bool verified =
      timed(tr, st, "lattice.verify", [&] { return best->mapping.realizes(f); });
  if (!verified) {
    r.fail(op, best->method + " bound does not realize the target");
  }

  const janus::bf::np_canonical canon =
      timed(tr, st, "cache.canonicalize", [&] { return store.canonicalize(f); });
  st.canon_ms_by_n[f.num_vars()].push_back(st.ms["cache.canonicalize"].back());
  timed(tr, st, "cache.store", [&] {
    store.store(canon, f, best->mapping, lb);
    return 0;
  });
  const auto hit =
      timed(tr, st, "cache.lookup", [&] { return store.lookup(canon, f); });
  if (!hit.has_value() || hit->mapping.size() > best->size()) {
    r.fail(op, "store/lookup round trip lost the realization");
  }
  service::output_report report;
  report.name = name;
  report.dims = best->mapping.grid().str();
  report.switches = best->size();
  report.lower_bound = lb;
  report.new_upper_bound = best->size();
  timed(tr, st, "service.serialize", [&] {
    return service::ok_response(name, {report}, 1.0);
  });

  janus::lm::lattice_info_cache fresh;
  const janus::lattice::dims d = best->mapping.grid();
  const janus::lm::lattice_info& info =
      timed(tr, st, "lattice.paths", [&]() -> const janus::lm::lattice_info& {
        return fresh.get(d);
      });
  st.paths.push_back(static_cast<double>(info.paths_4tb.size() +
                                         info.paths_8lr.size()));
  // Encode the cheaper side at the best bound's dims; a realizable instance,
  // solved under a conflict budget so wide targets stay bounded.
  const bool dual =
      janus::lm::estimate_encoding_clauses(spec, info, true, lm_opts.encode) <
      janus::lm::estimate_encoding_clauses(spec, info, false, lm_opts.encode);
  const auto encoder = timed(tr, st, "lm.encode", [&] {
    return std::make_unique<janus::lm::lm_encoder>(spec, info, dual,
                                                   lm_opts.encode);
  });
  st.clauses.push_back(static_cast<double>(encoder->stats().num_clauses));
  janus::sat::solver solver(janus::lm::default_lm_solver_options());
  solver.add_cnf(encoder->formula());
  solver.set_conflict_budget(2'000);
  const double solve_t0 = now_s();
  const janus::sat::solve_result verdict =
      timed(tr, st, "sat.solve", [&] { return solver.solve(); });
  const double solve_s = now_s() - solve_t0;
  if (verdict == janus::sat::solve_result::unsat) {
    r.fail(op, "SAT says the best bound's dims are unrealizable");
  }
  if (solve_s > 0.0) {
    st.props_per_s.push_back(
        static_cast<double>(solver.stats().propagations) / solve_s);
  }
}

double med_ms(const sweep_stats& st, const std::string& name) {
  const auto it = st.ms.find(name);
  return it == st.ms.end() ? 0.0 : median(it->second);
}

std::size_t count_ms(const sweep_stats& st, const std::string& name) {
  const auto it = st.ms.find(name);
  return it == st.ms.end() ? 0 : it->second.size();
}

/// After the sweep: time load_file on the store it filled.
void sweep_load(sweep_stats& st, const janus::cache::solution_cache& store,
                const std::string& work_dir) {
  const std::string path = work_dir + "/sweep-store.txt";
  store.save_file(path);
  janus::cache::solution_cache loaded;
  st.load_s = seconds_of([&] { loaded.load_file(path); });
  std::filesystem::remove(path);
}

constexpr const char* kSoloBackends[] = {"janus", "exact6", "esop", "chain"};

/// Each of kSoloBackends alone through make_backend on every target within
/// its max_vars, under kSoloBudgetS, as spans under a "bench.solo" root.
/// Every traced run sweeps the portfolio target set, the converging
/// <= 6-input stand-ins: on wider targets every backend just runs out its
/// budget. Returns per target the fastest definitive solo time in ms (0 when
/// no backend was definitive).
std::vector<double> backend_sweep(tracer& tr, sweep_stats& st,
                                  const std::vector<target_spec>& specs) {
  std::vector<double> fastest(specs.size(), 0.0);
  tracer::scope root(tr, "bench.solo");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    tracer::scope target_span(tr, "bench.target", specs[i].name());
    for (const char* name : kSoloBackends) {
      const auto engine = janus::backend::make_backend(name);
      if (specs[i].num_vars() > engine->capabilities().max_vars) {
        continue;
      }
      janus::backend::backend_request req;
      req.target = specs[i];
      req.dl = janus::deadline::in_seconds(kSoloBudgetS);
      req.base.time_limit_s = kSoloBudgetS;
      req.base.lm.sat_time_limit_s = kSoloBudgetS;
      const std::string span_name = std::string("backend.solo.") + name;
      const janus::backend::backend_result res =
          timed(tr, st, span_name.c_str(), [&] { return engine->run(req); });
      const double ms = st.ms[span_name].back();
      if (res.definitive() && (fastest[i] == 0.0 || ms < fastest[i])) {
        fastest[i] = ms;
      }
    }
  }
  return fastest;
}

/// The per-layer metrics every workload's traced run reports.
void add_layer_metrics(result& r, const sweep_stats& st, double coverage_share,
                       double trace_overhead) {
  const auto per_call = [&](const char* metric_name, const char* span_name) {
    r.add(metric_name, med_ms(st, span_name), "ms", count_ms(st, span_name),
          "median per call");
  };
  per_call("bf.minimize_ms", "bf.minimize");
  per_call("bf.pla_parse_ms", "bf.pla_parse");
  per_call("service.parse_ms", "service.parse");
  per_call("service.serialize_ms", "service.serialize");
  per_call("cache.canonicalize_ms", "cache.canonicalize");
  per_call("cache.lookup_ms", "cache.lookup");
  per_call("cache.store_ms", "cache.store");
  r.add("cache.load_s", st.load_s, "s", 1, "load_file of the swept store");
  per_call("lattice.paths_ms", "lattice.paths");
  r.add("lattice.paths", median(st.paths), "count", st.paths.size(),
        "median paths (both views) per enumerated dims");
  per_call("lattice.verify_ms", "lattice.verify");
  per_call("synth.lb_ms", "synth.lb");
  for (const char* m : {"dp", "ps", "dps", "ips", "idps", "ds"}) {
    const std::string span_name = std::string("synth.ub.") + m;
    r.add(std::string("synth.ub_ms.") + m, med_ms(st, span_name), "ms",
          count_ms(st, span_name), "median per call");
  }
  per_call("lm.encode_ms", "lm.encode");
  r.add("lm.clauses", median(st.clauses), "count", st.clauses.size(),
        "median clauses per scratch encoding");
  per_call("sat.solve_ms", "sat.solve");
  r.add("sat.props_per_s", median(st.props_per_s), "1/s",
        st.props_per_s.size(), "median propagations per second of solve");
  for (const char* name : kSoloBackends) {
    const std::string span_name = std::string("backend.solo.") + name;
    r.add(std::string("backend.solo_ms.") + name, med_ms(st, span_name), "ms",
          count_ms(st, span_name),
          "median per supported target, run alone under a 1.5 s budget");
  }
  r.add("bench.coverage", coverage_share, "ratio", 1,
        "share of the traced pass attributed to named layer spans");
  r.add("bench.trace_overhead", trace_overhead, "ratio", 1,
        "traced / untraced wall of the same work");
  for (const auto& [n, samples] : st.canon_ms_by_n) {
    r.add_extra("cache.canonicalize_ms.n" + std::to_string(n), median(samples),
                "ms", samples.size(), "median per call");
  }
}

/// Attribution table of the traced pass rooted at `root`, plus the trace file.
std::string report_json(const tracer& tr, int root, const run_options& o) {
  const std::string trace_path = o.work_dir + "/trace-" + o.workload + "-" +
                                 std::to_string(o.seed) + ".json";
  std::ofstream(trace_path) << chrome_trace(tr.spans());
  const span& r = tr.spans()[static_cast<std::size_t>(root)];
  janus::util::json_writer w;
  w.begin_object().field("trace_file", trace_path);
  w.key("pass_wall_s").value(r.end_s - r.start_s, 6);
  w.key("coverage").value(coverage(tr.spans(), root), 6);
  w.key("layers").begin_array();
  for (const layer_row& row : attribute(tr.spans(), root)) {
    w.begin_object().field("layer", row.layer).field("count", row.count);
    w.key("busy_ms").value(row.busy_s * 1e3, 3);
    w.key("self_ms").value(row.self_s * 1e3, 3);
    w.key("share").value(row.share, 6);
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

double span_total(const tracer& tr, const std::string& prefix) {
  double total = 0.0;
  for (const span& s : tr.spans()) {
    if (s.name.rfind(prefix, 0) == 0) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

// ---- ladder -------------------------------------------------------------------

std::string ladder_outputs(const batch_inputs& in,
                           const std::vector<synth::janus_result>& res) {
  janus::util::json_writer w;
  w.begin_array();
  for (std::size_t i = 0; i < in.names.size(); ++i) {
    w.begin_object()
        .field("name", in.names[i])
        .field("lb", res[i].lower_bound)
        .field("size", res[i].solution_size())
        .end_object();
  }
  w.end_array();
  return w.str();
}

void run_ladder(const run_options& o, result& r) {
  const batch_inputs in = make_batch_inputs("ladder", o.seed);
  std::vector<double> setup;
  const std::vector<target_spec> specs = setup_block(in, setup);
  r.failed_base = "targets per pass";
  if (!o.trace) {
    // Pass 0 runs in the seed's order and is the warm-up; the measured
    // passes hand the targets over longest first (see run_bounds).
    pass_samples p;
    std::vector<synth::janus_result> first(specs.size());
    std::vector<std::size_t> order(specs.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<target_spec> queued = specs;
    const int passes = repeat_passes(o.seconds, [&](int pass) {
      if (pass > 0) {
        (void)setup_block(in, setup);
      }
      synth::batch_options opts;
      opts.jobs = kJobs;
      reset_peak_rss();
      const double c0 = cpu_s();
      const double t0 = now_s();
      synth::batch_result b = synth::synthesize_batch(queued, opts);
      if (pass > 0) {
        p.wall.push_back(now_s() - t0);
        p.cpu.push_back(cpu_s() - c0);
        p.rss_mb.push_back(peak_rss_mb());
      }
      std::vector<double> ms(specs.size());
      for (std::size_t j = 0; j < queued.size(); ++j) {
        const std::size_t i = order[j];
        const synth::janus_result& res = b.results[j];
        const std::string op = "pass " + std::to_string(pass) + " " + in.names[i];
        check_ladder(r, op, in.tables[i], res);
        ms[i] = res.seconds * 1e3;
        p.latency_ms.push_back(ms[i]);
        if (pass == 0) {
          first[i] = res;
        } else if (res.solution_size() != first[i].solution_size() ||
                   res.lower_bound != first[i].lower_bound) {
          r.fail(op, "size or lb differs from pass 0");
        }
      }
      if (pass == 0) {
        order = longest_first(ms);
        for (std::size_t j = 0; j < order.size(); ++j) {
          queued[j] = specs[order[j]];
        }
      }
    });
    r.attempted = static_cast<std::size_t>(passes) * specs.size();
    add_setup(r, setup);
    add_pass_metrics(r, p, "target (janus_result::seconds at jobs=4)");
    r.outputs = ladder_outputs(in, first);
    return;
  }
  add_setup(r, setup);

  // Traced: untraced jobs=1 and jobs=4 passes, the traced jobs=1 pass with
  // the layer sweep, then the probe replay.
  synth::batch_options one;
  one.jobs = 1;
  synth::batch_options four;
  four.jobs = kJobs;
  synth::batch_result b1;
  synth::batch_result b4;
  const double wall1 = seconds_of([&] { b1 = synth::synthesize_batch(specs, one); });
  const double wall4 = seconds_of([&] { b4 = synth::synthesize_batch(specs, four); });
  r.attempted = specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    check_ladder(r, "jobs=1 " + in.names[i], in.tables[i], b1.results[i]);
    check_ladder(r, "jobs=4 " + in.names[i], in.tables[i], b4.results[i]);
    if (b1.results[i].solution_size() != b4.results[i].solution_size()) {
      r.fail("jobs=4 " + in.names[i], "size differs from jobs=1");
    }
  }
  r.outputs = ladder_outputs(in, b1.results);

  tracer tr(true);
  sweep_stats st;
  janus::cache::solution_cache store;
  std::vector<synth::janus_result> runs(specs.size());
  const int root = tr.open("bench.pass");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sweep_target(tr, st, r, store, in.names[i], in.tables[i],
                 [&](const target_spec& spec) {
                   runs[i] = timed(tr, st, "synth.run", [&] {
                     synth::janus_synthesizer engine{synth::janus_options{}};
                     return engine.run(spec);
                   });
                 });
  }
  tr.close(root);
  sweep_load(st, store, o.work_dir);
  (void)backend_sweep(tr, st,
                      build_specs(make_batch_inputs("portfolio", o.seed)));

  // Replay each target's jobs=1 probe order against a fresh session pool;
  // the conflicts must equal the run's own totals.
  const int replay = tr.open("bench.replay");
  std::uint64_t replay_conflicts = 0;
  std::uint64_t run_conflicts = 0;
  std::vector<double> probe_ms;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    tracer::scope target_span(tr, "bench.target", in.names[i]);
    const synth::janus_options base;
    janus::lm::lattice_info_cache cache(base.max_paths);
    janus::lm::lm_session_pool pool(specs[i], base.lm.encode, base.lm.solver);
    janus::lm::lm_options lm = base.lm;
    lm.sessions = &pool;
    std::uint64_t conflicts = 0;
    for (const synth::probe_record& p : runs[i].probes) {
      const janus::lm::lattice_info& info = cache.get(p.d);
      const int id = tr.open("lm.probe");
      const double t0 = now_s();
      const janus::lm::lm_result res = janus::lm::solve_lm(specs[i], info, lm);
      probe_ms.push_back((now_s() - t0) * 1e3);
      tr.close(id);
      conflicts += res.solver.conflicts;
      if (res.status != p.status) {
        r.fail("replay " + in.names[i], "probe " + p.d.str() + " changed verdict");
      }
    }
    if (conflicts != runs[i].sat_totals.conflicts) {
      r.fail("replay " + in.names[i],
             "replayed " + std::to_string(conflicts) + " conflicts, run had " +
                 std::to_string(runs[i].sat_totals.conflicts));
    }
    replay_conflicts += conflicts;
    run_conflicts += runs[i].sat_totals.conflicts;
  }
  tr.close(replay);

  add_layer_metrics(r, st, coverage(tr.spans(), root),
                    span_total(tr, "synth.run") / wall1);
  std::vector<double> run_ms;
  std::uint64_t probes = 0;
  std::uint64_t pruned = 0;
  for (const synth::janus_result& res : runs) {
    run_ms.push_back(res.seconds * 1e3);
    probes += res.probes.size();
    pruned += res.pruned_probes;
  }
  r.add_extra("synth.run_ms", median(run_ms), "ms", run_ms.size(),
              "janus_synthesizer::run at jobs=1, median per target");
  r.add_extra("synth.probes", static_cast<double>(probes), "count", runs.size());
  r.add_extra("synth.pruned_ratio",
              probes > 0 ? static_cast<double>(pruned) / static_cast<double>(probes) : 0.0,
              "ratio", runs.size(), "pruned / probes");
  r.add_extra("lm.probe_ms", median(probe_ms), "ms", probe_ms.size(),
              "solve_lm replay of the jobs=1 probe order, median per probe");
  double replay_ms = 0.0;
  for (const double ms : probe_ms) {
    replay_ms += ms;
  }
  r.add_extra("lm.replay_ms", replay_ms, "ms", probe_ms.size(),
              "the whole replay, all targets");
  r.add_extra("lm.replay_conflicts", static_cast<double>(replay_conflicts),
              "count", probe_ms.size(),
              "must equal sat.conflicts (run totals): " +
                  std::to_string(run_conflicts));
  r.add_extra("sat.conflicts", static_cast<double>(b1.solver_totals.conflicts),
              "count", specs.size(), "jobs=1 pass, exact");
  r.add_extra("sat.propagations",
              static_cast<double>(b1.solver_totals.propagations), "count",
              specs.size(), "jobs=1 pass, exact");
  r.add_extra("sat.decisions", static_cast<double>(b1.solver_totals.decisions),
              "count", specs.size(), "jobs=1 pass, exact");
  r.add_extra("exec.speedup", wall1 / wall4, "ratio", 1,
              "jobs=1 wall / jobs=4 wall");
  r.add_extra("exec.conflict_overhead",
              static_cast<double>(b4.solver_totals.conflicts) /
                  static_cast<double>(std::max<std::uint64_t>(1, b1.solver_totals.conflicts)),
              "ratio", 1, "jobs=4 / jobs=1 conflicts");
  r.add_extra("exec.probe_overhead",
              static_cast<double>(b4.total_probes) /
                  static_cast<double>(std::max<std::uint64_t>(1, b1.total_probes)),
              "ratio", 1, "jobs=4 / jobs=1 probes");
  r.report = report_json(tr, root, o);
}

// ---- bounds -------------------------------------------------------------------

/// compute_bounds is a one-thread call. An untraced pass hands the targets to
/// kJobs worker threads: a lone busy thread on a shared 4-vCPU host runs at
/// one of two speeds, 30-40% apart, depending on what the host's other
/// tenants do, while a pass that keeps every vCPU busy runs at the loaded
/// speed every time. Pass 0 runs in the seed's order and is the warm-up;
/// later passes (the measured ones) dispatch longest first by pass 0's
/// per-target times, so their makespan does not depend on the seed. The
/// traced run's pass 0 goes on one thread, as the sweep does.
void run_bounds(const run_options& o, result& r) {
  const batch_inputs in = make_batch_inputs("bounds", o.seed);
  std::vector<double> setup;
  const std::vector<target_spec> specs = setup_block(in, setup);
  r.failed_base = "targets per pass";
  const std::size_t n = specs.size();
  // Pass 0's bounds per target; -1 where pass 0 found none.
  std::vector<int> first_lb(n, -1);
  std::vector<int> first_ub(n, -1);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  pass_samples p;
  double first_wall = 0.0;
  const auto pass = [&](int k) {
    if (k > 0) {
      (void)setup_block(in, setup);
    }
    std::vector<synth::janus_synthesizer::bounds_report> reps(n);
    std::vector<double> ms(n, 0.0);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t j = next++; j < n; j = next++) {
        const std::size_t i = order[j];
        try {
          synth::janus_synthesizer engine{synth::janus_options{}};
          const double ti = now_s();
          reps[i] = engine.compute_bounds(specs[i], janus::deadline::never());
          ms[i] = (now_s() - ti) * 1e3;
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    reset_peak_rss();
    const double c0 = cpu_s();
    const double t0 = now_s();
    if (o.trace) {
      worker();
    } else {
      std::vector<std::thread> pool;
      for (int t = 0; t < kJobs; ++t) {
        pool.emplace_back(worker);
      }
      for (std::thread& t : pool) {
        t.join();
      }
    }
    const double wall = now_s() - t0;
    const double cpu = cpu_s() - c0;
    for (const std::exception_ptr& e : errors) {
      if (e) {
        std::rethrow_exception(e);
      }
    }
    if (k == 0) {
      first_wall = wall;
      order = longest_first(ms);
    } else {
      p.wall.push_back(wall);
      p.cpu.push_back(cpu);
      p.rss_mb.push_back(peak_rss_mb());
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::string op = "pass " + std::to_string(k) + " " + in.names[i];
      const synth::janus_synthesizer::bounds_report& rep = reps[i];
      p.latency_ms.push_back(ms[i]);
      const synth::bound_solution* best = rep.best();
      if (best == nullptr) {
        r.fail(op, "no bound");
        continue;
      }
      for (const synth::bound_solution& b : rep.methods) {
        if (!b.mapping.realizes(in.tables[i])) {
          r.fail(op, b.method + " bound does not realize the target");
        }
      }
      if (k == 0) {
        first_lb[i] = rep.lower_bound;
        first_ub[i] = best->size();
      } else if (first_ub[i] >= 0 && (first_lb[i] != rep.lower_bound ||
                                      first_ub[i] != best->size())) {
        r.fail(op, "bounds differ from pass 0");
      }
    }
  };
  const int passes = o.trace ? (pass(0), 1) : repeat_passes(o.seconds, pass);
  r.attempted = static_cast<std::size_t>(passes) * specs.size();
  add_setup(r, setup);
  janus::util::json_writer w;
  w.begin_array();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    w.begin_object()
        .field("name", in.names[i])
        .field("lb", first_lb[i])
        .field("ub", first_ub[i])
        .end_object();
  }
  w.end_array();
  r.outputs = w.str();
  if (!o.trace) {
    add_pass_metrics(r, p, "target (compute_bounds call, 4 at a time)");
    return;
  }
  tracer tr(true);
  sweep_stats st;
  janus::cache::solution_cache store;
  const int root = tr.open("bench.pass");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sweep_target(tr, st, r, store, in.names[i], in.tables[i], nullptr);
  }
  tr.close(root);
  sweep_load(st, store, o.work_dir);
  (void)backend_sweep(tr, st,
                      build_specs(make_batch_inputs("portfolio", o.seed)));
  add_layer_metrics(r, st, coverage(tr.spans(), root),
                    (span_total(tr, "synth.ub.") + span_total(tr, "synth.lb")) /
                        first_wall);
  r.report = report_json(tr, root, o);
}

// ---- portfolio ----------------------------------------------------------------

void run_portfolio(const run_options& o, result& r) {
  const batch_inputs in = make_batch_inputs("portfolio", o.seed);
  std::vector<double> setup;
  const std::vector<target_spec> specs = setup_block(in, setup);
  r.failed_base = "targets per pass";
  std::map<std::pair<std::string, std::string>, int> costs;  // (target, winner)
  std::map<std::string, std::string> winner4;
  pass_samples p;
  const auto pass = [&](int k, int jobs) {
    if (k > 0) {
      (void)setup_block(in, setup);
    }
    const synth::batch_options opts = portfolio_batch(jobs);
    reset_peak_rss();
    const double c0 = cpu_s();
    const double t0 = now_s();
    const synth::batch_result b = synth::synthesize_batch(specs, opts);
    p.wall.push_back(now_s() - t0);
    p.cpu.push_back(cpu_s() - c0);
    p.rss_mb.push_back(peak_rss_mb());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string op = "pass " + std::to_string(k) + " " + in.names[i];
      const janus::backend::backend_result* win = b.portfolio[i].winning();
      p.latency_ms.push_back(b.portfolio[i].seconds * 1e3);
      if (win == nullptr) {
        r.fail(op, "no definitive winner");
        continue;
      }
      if (!win->realized->verify(in.tables[i])) {
        r.fail(op, win->backend + " realization fails its own oracle");
      }
      const auto [it, fresh] =
          costs.emplace(std::make_pair(in.names[i], win->backend), win->cost());
      if (!fresh && it->second != win->cost()) {
        r.fail(op, win->backend + " cost differs from an earlier pass");
      }
      if (jobs == kJobs) {
        winner4[in.names[i]] = win->backend;
      }
    }
  };
  int passes = 0;
  double wall1 = 0.0;
  if (!o.trace) {
    passes = repeat_passes(o.seconds, [&](int k) { pass(k, kJobs); });
  } else {
    pass(0, kJobs);
    pass(1, 1);
    wall1 = p.wall.back();
    passes = 2;
  }
  r.attempted = static_cast<std::size_t>(passes) * specs.size();
  add_setup(r, setup);
  janus::util::json_writer w;
  w.begin_array();
  for (const auto& [key, cost] : costs) {
    w.begin_object()
        .field("name", key.first)
        .field("backend", key.second)
        .field("cost", cost)
        .end_object();
  }
  w.end_array();
  r.outputs = w.str();
  if (!o.trace) {
    add_pass_metrics(r, p, "target (portfolio race at jobs=4)");
    return;
  }

  tracer tr(true);
  sweep_stats st;
  janus::cache::solution_cache store;
  std::vector<double> race_ms;
  int flips = 0;
  std::vector<std::string> race_winner(specs.size());
  const int root = tr.open("bench.pass");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    sweep_target(tr, st, r, store, in.names[i], in.tables[i],
                 [&](const target_spec& spec) {
                   // What synthesize_batch runs per target at jobs=1.
                   const synth::batch_options one = portfolio_batch(1);
                   synth::portfolio_options popts;
                   popts.backends = one.backends;
                   popts.base = one.base;
                   const synth::portfolio_result res = timed(tr, st, "portfolio.race", [&] {
                     return synth::run_portfolio(spec, popts,
                                                 janus::deadline::in_seconds(kPortfolioBudgetS));
                   });
                   race_ms.push_back(st.ms["portfolio.race"].back());
                   if (const auto* win = res.winning()) {
                     race_winner[i] = win->backend;
                   }
                 });
    if (race_winner[i] != winner4[in.names[i]]) {
      ++flips;
    }
  }
  tr.close(root);
  sweep_load(st, store, o.work_dir);

  const std::vector<double> fastest = backend_sweep(tr, st, specs);
  std::vector<double> overhead;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (fastest[i] > 0.0) {
      overhead.push_back(race_ms[i] / fastest[i]);
    }
  }

  add_layer_metrics(r, st, coverage(tr.spans(), root),
                    span_total(tr, "portfolio.race") / wall1);
  r.add_extra("portfolio.race_ms", median(race_ms), "ms", race_ms.size(),
              "run_portfolio as a jobs=1 batch runs it, median per target");
  r.add_extra("portfolio.race_overhead", median(overhead), "ratio",
              overhead.size(), "race / fastest definitive solo, median");
  r.add_extra("portfolio.winner_flips", flips, "count", specs.size(),
              "targets whose jobs=1 winner differs from the jobs=4 pass");
  r.report = report_json(tr, root, o);
}

// ---- service ------------------------------------------------------------------

/// The store file the service loads at set-up: the pool's jobs=1 ladders,
/// rebuilt on every run (input generation, not timed) so that it always
/// comes from the program under test.
std::string pool_store(const batch_inputs& pool, const std::string& work_dir) {
  const std::string path = work_dir + "/service-store.txt";
  janus::cache::solution_cache store;
  synth::janus_options opts;
  opts.solutions = &store;
  for (const target_spec& t : build_specs(pool)) {
    synth::janus_synthesizer engine(opts);
    (void)engine.run(t);
  }
  store.save_file(path);
  return path;
}

/// Submits stream entries to one service and records send/start/done times.
class stream_client {
 public:
  explicit stream_client(std::size_t n)
      : sent_(n, 0.0), started_(n, 0.0), done_(n, 0.0), responses_(n) {}

  /// on_job_start hook body: ids are "r<index>".
  void job_started(const std::string& id) {
    started_[static_cast<std::size_t>(std::stoull(id.substr(1)))] = now_s();
  }

  void submit(service::synthesis_service& svc, std::size_t i,
              const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++outstanding_;
    }
    sent_[i] = now_s();
    svc.submit_line(0, line, [this, i](std::string response) {
      done_[i] = now_s();
      responses_[i] = std::move(response);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --outstanding_;
      }
      cv_.notify_all();
    });
  }

  /// Block until at most `limit` requests are outstanding.
  void wait_below(std::size_t limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ <= limit; });
  }

  [[nodiscard]] double sent(std::size_t i) const { return sent_[i]; }
  [[nodiscard]] double started(std::size_t i) const { return started_[i]; }
  [[nodiscard]] double done(std::size_t i) const { return done_[i]; }
  [[nodiscard]] const std::string& response(std::size_t i) const {
    return responses_[i];
  }

 private:
  std::vector<double> sent_;
  std::vector<double> started_;
  std::vector<double> done_;
  std::vector<std::string> responses_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
};

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

struct phase_result {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> job_ms;
  double wall_s = 0.0;
};

/// Open loop at kRatePerS over stream[begin, end).
phase_result fixed_rate_phase(service::synthesis_service& svc,
                              stream_client& drv,
                              const std::vector<service_request>& stream,
                              std::size_t begin, std::size_t end,
                              tracer* tr) {
  phase_result out;
  const double start = now_s() + 0.01;
  open_loop loop(start, kRatePerS);
  for (std::size_t i = begin; i < end; ++i) {
    sleep_until_s(loop.due(i - begin));
    loop.record_send(i - begin, now_s());
    drv.submit(svc, i, stream[i].line);
  }
  drv.wait_below(0);
  out.wall_s = now_s() - start;
  for (std::size_t i = begin; i < end; ++i) {
    out.latency_ms.push_back(loop.latency(i - begin, drv.done(i)) * 1e3);
    if (tr != nullptr) {
      out.queue_wait_ms.push_back((drv.started(i) - drv.sent(i)) * 1e3);
      out.job_ms.push_back((drv.done(i) - drv.started(i)) * 1e3);
    }
  }
  for (const double late : loop.lateness()) {
    out.lateness_ms.push_back(late * 1e3);
  }
  if (tr != nullptr) {
    const int root = static_cast<int>(tr->spans().size());
    tr->add({"bench.phase", start, now_s(), -1, "fixed-rate", 0});
    for (std::size_t i = begin; i < end; ++i) {
      const int req = static_cast<int>(tr->spans().size());
      const std::string id = "r" + std::to_string(i);
      tr->add({"service.request", loop.due(i - begin), drv.done(i), root, id, 0});
      tr->add({"service.queue_wait", drv.sent(i), drv.started(i), req, id, 0});
      tr->add({"service.job", drv.started(i), drv.done(i), req, id, 0});
    }
  }
  return out;
}

/// Check every response in [begin, end) against the pool sizes and, for the
/// misses, a jobs=1 ladder on the same table.
void check_responses(result& r, const stream_client& drv,
                     const std::vector<service_request>& stream,
                     std::size_t begin, std::size_t end,
                     const std::vector<int>& pool_size,
                     std::map<std::string, int>& miss_ref) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::string op = "r" + std::to_string(i);
    const service::json_parse_result parsed = service::json_parse(drv.response(i));
    const service::json_value* status =
        parsed.value ? parsed.value->find("status") : nullptr;
    if (status == nullptr || status->string != "ok") {
      r.fail(op, "response " + drv.response(i).substr(0, 160));
      continue;
    }
    const service::json_value* outputs = parsed.value->find("outputs");
    std::vector<int> expect;
    const service_request& q = stream[i];
    if (q.type == service_request::kind::miss) {
      const std::string key = q.table.to_binary_string();
      auto it = miss_ref.find(key);
      if (it == miss_ref.end()) {
        synth::janus_synthesizer engine{synth::janus_options{}};
        const synth::janus_result res =
            engine.run(target_spec::from_function(q.table));
        it = miss_ref.emplace(key, res.solution_size()).first;
      }
      expect.push_back(it->second);
    } else {
      for (const int p : q.pool) {
        expect.push_back(pool_size[static_cast<std::size_t>(p)]);
      }
    }
    if (outputs == nullptr || outputs->items.size() != expect.size()) {
      r.fail(op, "wrong output count");
      continue;
    }
    for (std::size_t k = 0; k < expect.size(); ++k) {
      const service::json_value* sw = outputs->items[k].find("switches");
      if (sw == nullptr || static_cast<int>(sw->number) != expect[k]) {
        r.fail(op, "output " + std::to_string(k) + " has " +
                       (sw ? std::to_string(static_cast<int>(sw->number)) : "?") +
                       " switches, expected " + std::to_string(expect[k]));
      }
    }
  }
}

void run_service(const run_options& o, result& r) {
  progress("generating the service pool");
  const batch_inputs pool = make_service_pool();
  progress("building the pool store");
  const std::string store_path = pool_store(pool, o.work_dir);
  std::vector<int> pool_size;
  {
    janus::cache::solution_cache store;
    store.load_file(store_path);
    for (std::size_t p = 0; p < pool.tables.size(); ++p) {
      const auto hit = store.lookup(pool.tables[p]);
      pool_size.push_back(hit ? hit->mapping.size() : -1);
    }
  }
  const double phase_s = o.trace ? 0.3 * o.seconds : 0.5 * o.seconds;
  const std::size_t fixed_n =
      static_cast<std::size_t>(kRatePerS * phase_s);
  const std::size_t max_bursts = 16;
  const std::vector<service_request> stream = make_service_stream(
      pool, o.seed, (o.trace ? 2 * fixed_n : fixed_n) + max_bursts * kBurst);
  stream_client drv(stream.size());
  progress("generated " + std::to_string(stream.size()) + " requests");
  const std::string run_store = o.work_dir + "/service-store-run.txt";

  service::service_options sopts;
  sopts.workers = kWorkers;
  sopts.queue_capacity = kQueueCapacity;
  sopts.cache_path = run_store;
  const auto make_service = [&](bool hook) {
    std::filesystem::copy_file(store_path, run_store,
                               std::filesystem::copy_options::overwrite_existing);
    service::service_options so = sopts;
    if (hook) {
      so.on_job_start = [&drv](std::uint64_t, const std::string& id) {
        drv.job_started(id);
      };
    }
    return so;
  };

  std::vector<double> setup;
  for (int k = 0; k < kSetupReps; ++k) {
    const service::service_options so = make_service(false);
    const double t0 = now_s();
    auto svc = std::make_unique<service::synthesis_service>(so);
    setup.push_back(now_s() - t0);
    if (svc->store_size() == 0) {
      r.fail("setup", "store did not load");
    }
  }
  r.add("setup_s", median(setup), "s", setup.size(),
        "constructing the service: store load plus oracle re-check");
  progress("set-up measured");
  r.failed_base = "requests";
  std::map<std::string, int> miss_ref;

  if (!o.trace) {
    auto svc = std::make_unique<service::synthesis_service>(make_service(false));
    const phase_result fixed = fixed_rate_phase(*svc, drv, stream, 0, fixed_n, nullptr);
    progress("fixed-rate phase done");
    // Saturation: keep the fair queue full, never past its capacity.
    pass_samples p;
    std::size_t next = fixed_n;
    const double sat_start = now_s();
    const double sat_budget = o.seconds - phase_s;
    while (p.wall.size() < static_cast<std::size_t>(kMinPasses) ||
           (now_s() - sat_start + p.wall.back() <= sat_budget &&
            p.wall.size() < max_bursts)) {
      const double c0 = cpu_s();
      const double t0 = now_s();
      for (std::size_t k = 0; k < kBurst; ++k, ++next) {
        drv.wait_below(kQueueCapacity - 1);
        drv.submit(*svc, next, stream[next].line);
      }
      drv.wait_below(0);
      p.wall.push_back(now_s() - t0);
      p.cpu.push_back(cpu_s() - c0);
    }
    const service::service_stats stats = svc->stats();
    svc.reset();
    progress("checking " + std::to_string(next) + " responses");
    check_responses(r, drv, stream, 0, next, pool_size, miss_ref);
    progress("checked");
    r.attempted = next;
    r.add("wall_s", median(p.wall), "s", p.wall.size(),
          "median wall of one saturation pass of " + std::to_string(kBurst) +
              " requests");
    r.add("cpu_s", median(p.cpu), "s", p.cpu.size(),
          "median process user+sys CPU of one saturation pass");
    const summary lat = summarize(fixed.latency_ms);
    r.add("peak_rss_mb", peak_rss_mb(), "MB", 1, "peak resident set");
    r.add_extra("latency_p50_ms", lat.p50, "ms", lat.n,
                "due time to response at " +
                    std::to_string(static_cast<int>(kRatePerS)) + " rps");
    r.add_extra("latency_tail_ms", lat.tail, "ms", lat.n,
                "p" + std::to_string(lat.tail_pct) + ", due time to response");
    r.add_extra("capacity_rps", static_cast<double>(kBurst) / median(p.wall),
                "1/s", p.wall.size(), "requests per second, saturation pass");
    const summary late = summarize(fixed.lateness_ms);
    r.add_extra("bench.late_p99_ms", late.tail, "ms", late.n,
                "p" + std::to_string(late.tail_pct) + " generator lateness");
    r.add_extra("cache.hit_ratio",
                static_cast<double>(stats.store.hits) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, stats.store.hits + stats.store.misses)),
                "ratio", next, "store hits / lookups");
  } else {
    auto plain = std::make_unique<service::synthesis_service>(make_service(false));
    const phase_result untraced =
        fixed_rate_phase(*plain, drv, stream, 0, fixed_n, nullptr);
    plain.reset();
    tracer tr(true);
    auto svc = std::make_unique<service::synthesis_service>(make_service(true));
    const int root = static_cast<int>(tr.spans().size());
    const phase_result traced =
        fixed_rate_phase(*svc, drv, stream, fixed_n, 2 * fixed_n, &tr);
    const service::service_stats stats = svc->stats();
    svc.reset();
    check_responses(r, drv, stream, 0, 2 * fixed_n, pool_size, miss_ref);
    r.attempted = 2 * fixed_n;

    // Sweep over the pool and the first distinct miss tables.
    sweep_stats st;
    janus::cache::solution_cache store;
    const int sweep_root = tr.open("bench.pass");
    for (std::size_t p = 0; p < pool.tables.size(); ++p) {
      sweep_target(tr, st, r, store, pool.names[p], pool.tables[p], nullptr);
    }
    std::set<std::string> seen;
    for (std::size_t i = 0; i < stream.size() && seen.size() < 16; ++i) {
      if (stream[i].type == service_request::kind::miss &&
          seen.insert(stream[i].table.to_binary_string()).second) {
        sweep_target(tr, st, r, store, "miss" + std::to_string(i),
                     stream[i].table, nullptr);
      }
    }
    tr.close(sweep_root);
    sweep_load(st, store, o.work_dir);
    (void)backend_sweep(tr, st, build_specs(pool));

    add_layer_metrics(r, st, coverage(tr.spans(), sweep_root),
                      median(traced.latency_ms) / median(untraced.latency_ms));
    const summary wait = summarize(traced.queue_wait_ms);
    const summary job = summarize(traced.job_ms);
    r.add_extra("service.queue_wait_ms.p50", wait.p50, "ms", wait.n);
    r.add_extra("service.queue_wait_ms.tail", wait.tail, "ms", wait.n,
                "p" + std::to_string(wait.tail_pct));
    r.add_extra("service.job_ms.p50", job.p50, "ms", job.n);
    r.add_extra("service.job_ms.tail", job.tail, "ms", job.n,
                "p" + std::to_string(job.tail_pct));
    double busy = 0.0;
    for (const double ms : traced.job_ms) {
      busy += ms / 1e3;
    }
    r.add_extra("service.utilization", busy / (kWorkers * traced.wall_s),
                "ratio", job.n, "sum of job time / (workers x phase wall)");
    const summary late = summarize(traced.lateness_ms);
    r.add_extra("bench.late_p99_ms", late.tail, "ms", late.n,
                "p" + std::to_string(late.tail_pct) + " generator lateness");
    r.add_extra("cache.hit_ratio",
                static_cast<double>(stats.store.hits) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, stats.store.hits + stats.store.misses)),
                "ratio", fixed_n, "store hits / lookups");
    r.report = report_json(tr, root, o);
  }
  std::filesystem::remove(run_store);
  std::filesystem::remove(store_path);

  janus::util::json_writer w;
  w.begin_array();
  for (std::size_t p = 0; p < pool.names.size(); ++p) {
    w.begin_object()
        .field("name", pool.names[p])
        .field("size", pool_size[p])
        .end_object();
  }
  w.end_array();
  r.outputs = w.str();
}

}  // namespace

std::string run_workload(const run_options& o) {
  result r;
  if (o.workload == "ladder") {
    run_ladder(o, r);
  } else if (o.workload == "bounds") {
    run_bounds(o, r);
  } else if (o.workload == "service") {
    run_service(o, r);
  } else if (o.workload == "portfolio") {
    run_portfolio(o, r);
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }
  return document(o, r);
}

std::string reference_document() {
  janus::util::json_writer w(2);
  w.begin_object();

  const batch_inputs ladder = make_batch_inputs("ladder", 0);
  synth::batch_options one;
  one.jobs = 1;
  const synth::batch_result lb =
      synth::synthesize_batch(build_specs(ladder), one);
  w.key("ladder").begin_object();
  for (std::size_t i = 0; i < ladder.names.size(); ++i) {
    w.key(ladder.names[i])
        .begin_object()
        .field("lb", lb.results[i].lower_bound)
        .field("size", lb.results[i].solution_size())
        .end_object();
  }
  w.end_object();

  const batch_inputs bounds = make_batch_inputs("bounds", 0);
  w.key("bounds").begin_object();
  for (const target_spec& t : build_specs(bounds)) {
    synth::janus_synthesizer engine{synth::janus_options{}};
    const auto rep = engine.compute_bounds(t, janus::deadline::never());
    w.key(t.name())
        .begin_object()
        .field("lb", rep.lower_bound)
        .field("ub", rep.best()->size())
        .end_object();
  }
  w.end_object();

  // Each backend alone at jobs=1; a backend that does not converge within
  // the portfolio budget has no reference (and may not win there).
  const batch_inputs port = make_batch_inputs("portfolio", 0);
  w.key("portfolio").begin_object();
  for (const target_spec& t : build_specs(port)) {
    w.key(t.name()).begin_object();
    for (const std::string& name : janus::backend::backend_names()) {
      const auto engine = janus::backend::make_backend(name);
      janus::backend::backend_request req;
      req.target = t;
      req.dl = janus::deadline::in_seconds(kPortfolioBudgetS);
      req.base.time_limit_s = kPortfolioBudgetS;
      req.base.lm.sat_time_limit_s = kPortfolioBudgetS;
      const janus::backend::backend_result res = engine->run(req);
      if (res.definitive()) {
        w.field(name, res.cost());
      }
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace janusbench
