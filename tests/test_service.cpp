// Tests for the janusd service engine (src/service/): the latency histogram,
// the fair queue's round-robin and capacity bound, admission control under a
// burst, per-client fairness, deadline-expired timeouts, graceful drain
// producing results bit-identical to a direct synthesize_batch run (JANUS
// and portfolio requests alike), warm
// restart from the persisted store, the shutdown-op lifecycle, the /stats
// counters, and the self-pipe signal watcher.
//
// Synthesis jobs here are 1–3 variable functions, so worker turnaround is
// microseconds; every blocking wait has a generous timeout so a regression
// fails instead of hanging the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "bf/truth_table.hpp"
#include "service/json_value.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/signals.hpp"
#include "synth/batch.hpp"
#include "util/str.hpp"
#include "util/thread_annotations.hpp"

namespace janus::service {
namespace {

// ---- helpers ----------------------------------------------------------------

/// Thread-safe response collector with a counted wait.
struct response_sink {
  util::mutex mutex;
  util::cond_var cv;
  std::vector<std::string> lines JANUS_GUARDED_BY(mutex);

  std::function<void(std::string)> callback() {
    return [this](std::string response) {
      util::lock_guard lock(mutex);
      lines.push_back(std::move(response));
      cv.notify_all();
    };
  }

  [[nodiscard]] bool wait_for(std::size_t count, double seconds = 30.0) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::duration<double>(seconds));
    util::unique_lock lock(mutex);
    while (lines.size() < count) {
      if (cv.wait_until(lock, give_up) == std::cv_status::timeout) {
        return lines.size() >= count;
      }
    }
    return true;
  }

  [[nodiscard]] std::vector<std::string> snapshot() {
    util::lock_guard lock(mutex);
    return lines;
  }
};

/// on_job_start hook that records dequeue order and holds every job until
/// release() — the deterministic point the admission and fairness tests need.
struct worker_gate {
  util::mutex mutex;
  util::cond_var cv;
  bool open JANUS_GUARDED_BY(mutex) = false;
  /// Request ids in dequeue order.
  std::vector<std::string> order JANUS_GUARDED_BY(mutex);

  std::function<void(std::uint64_t, const std::string&)> hook() {
    return [this](std::uint64_t /*client*/, const std::string& id) {
      util::unique_lock lock(mutex);
      order.push_back(id);
      cv.notify_all();
      while (!open) {
        cv.wait(lock);
      }
    };
  }

  [[nodiscard]] bool wait_for_started(std::size_t count,
                                      double seconds = 30.0) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::duration<double>(seconds));
    util::unique_lock lock(mutex);
    while (order.size() < count) {
      if (cv.wait_until(lock, give_up) == std::cv_status::timeout) {
        return order.size() >= count;
      }
    }
    return true;
  }

  void release() {
    util::lock_guard lock(mutex);
    open = true;
    cv.notify_all();
  }
};

json_value parse_response(const std::string& line) {
  json_parse_result parsed = json_parse(line);
  EXPECT_TRUE(parsed.value.has_value())
      << "unparseable response (" << parsed.error << "): " << line;
  return parsed.value.has_value() ? *parsed.value : json_value{};
}

std::string field_string(const json_value& doc, const char* key) {
  const json_value* member = doc.find(key);
  return member != nullptr && member->is_string() ? member->string : "";
}

std::string synth_line(const std::string& id, const std::string& bits,
                       int deadline_ms = -1) {
  int n = 0;
  while ((std::size_t{1} << n) < bits.size()) {
    ++n;
  }
  std::string line = "{\"v\":1,\"op\":\"synth\",\"id\":\"" + id +
                     "\",\"n\":" + std::to_string(n) + ",\"table\":\"" + bits +
                     "\"";
  if (deadline_ms >= 0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  line += "}";
  return line;
}

std::string backend_synth_line(const std::string& id, const std::string& bits,
                               const std::string& backend) {
  std::string line = synth_line(id, bits);
  line.insert(line.size() - 1, ",\"backend\":\"" + backend + "\"");
  return line;
}

service_options quick_options() {
  service_options options;
  options.workers = 1;
  options.default_deadline_s = 30.0;
  options.base.time_limit_s = 30.0;
  options.base.lm.sat_time_limit_s = 10.0;
  return options;
}

// ---- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, EmptyReportsZero) {
  const latency_histogram h;
  EXPECT_EQ(h.total, 0u);
  EXPECT_EQ(h.quantile_ms(0.5), 0.0);
  EXPECT_EQ(h.quantile_ms(0.99), 0.0);
}

TEST(LatencyHistogram, QuantilesResolveToBucketUpperBounds) {
  latency_histogram h;
  for (int i = 0; i < 5; ++i) {
    h.record(0.1);  // bucket [0.0625 * 51/32, 0.0625 * 52/32) ms
  }
  for (int i = 0; i < 4; ++i) {
    h.record(0.2);  // bucket [0.125 * 51/32, 0.125 * 52/32) ms
  }
  h.record(8000.0);  // bucket [4096 * 62/32, 4096 * 63/32) ms, above max
  EXPECT_EQ(h.total, 10u);
  EXPECT_EQ(h.quantile_ms(0.5), 0.1015625);
  EXPECT_EQ(h.quantile_ms(0.9), 0.203125);
  EXPECT_EQ(h.quantile_ms(0.99), 8000.0);  // clamped to max_ms
  EXPECT_EQ(h.max_ms, 8000.0);
}

TEST(LatencyHistogram, OverflowBucketReportsObservedMax) {
  latency_histogram h;
  h.record(5e6);  // beyond 2^kMaxExp ms
  EXPECT_EQ(latency_histogram::bucket_of(5e6), latency_histogram::kBounded);
  EXPECT_EQ(h.quantile_ms(0.5), 5e6);
  EXPECT_EQ(h.quantile_ms(1.0), 5e6);
}

TEST(LatencyHistogram, RelativeErrorBelowFivePercentAcrossDecades) {
  // 0.002 ms .. 500 s, 40 values per decade; each is the median of a
  // histogram whose max lies far above it, so no clamping hides the error.
  for (double v = 0.002; v < 5e5; v *= std::pow(10.0, 1.0 / 40)) {
    latency_histogram h;
    h.record(v);
    h.record(v);
    h.record(100.0 * v);
    const double p50 = h.quantile_ms(0.5);
    EXPECT_GE(p50, v) << v;
    EXPECT_LE(p50, 1.05 * v) << v;
  }
}

// ---- fair queue -------------------------------------------------------------

queued_job job_for(const std::string& id) {
  queued_job job;
  job.req.id = id;
  job.dl = deadline::never();
  return job;
}

TEST(FairQueue, RoundRobinAcrossClients) {
  fair_queue queue(16);
  ASSERT_TRUE(queue.push(1, job_for("a")));
  ASSERT_TRUE(queue.push(1, job_for("b")));
  ASSERT_TRUE(queue.push(1, job_for("c")));
  ASSERT_TRUE(queue.push(2, job_for("d")));
  // Client 1 is served, then goes to the back of the rotation behind 2.
  std::vector<std::string> order;
  for (int k = 0; k < 4; ++k) {
    auto job = queue.pop();
    ASSERT_TRUE(job.has_value());
    order.push_back(job->req.id);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "d", "b", "c"}));
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(FairQueue, CapacityBoundsTotalQueuedJobs) {
  fair_queue queue(2);
  EXPECT_TRUE(queue.push(1, job_for("a")));
  EXPECT_TRUE(queue.push(2, job_for("b")));
  EXPECT_FALSE(queue.push(3, job_for("c")));  // full across all clients
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(FairQueue, CloseRejectsPushesAndDrainsPending) {
  fair_queue queue(4);
  ASSERT_TRUE(queue.push(1, job_for("a")));
  queue.close();
  EXPECT_FALSE(queue.push(1, job_for("b")));
  auto job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->req.id, "a");
  EXPECT_FALSE(queue.pop().has_value());  // closed and empty: no block
}

// ---- admission control ------------------------------------------------------

TEST(ServiceAdmission, BurstOverCapacityDrawsTypedOverloaded) {
  worker_gate gate;
  service_options options = quick_options();
  options.queue_capacity = 2;
  options.on_job_start = gate.hook();

  response_sink sink;
  synthesis_service svc(options);
  // Occupy the single worker, then fill the queue, then one more.
  svc.submit_line(1, synth_line("blk", "01"), sink.callback());
  if (!gate.wait_for_started(1)) {
    gate.release();  // never leave the worker parked: drain would hang
    FAIL() << "worker never dequeued the blocker";
  }
  svc.submit_line(1, synth_line("b1", "0110"), sink.callback());
  svc.submit_line(1, synth_line("b2", "0110"), sink.callback());
  svc.submit_line(1, synth_line("b3", "0110"), sink.callback());

  // The rejection is inline, before the gate opens.
  ASSERT_TRUE(sink.wait_for(1));
  {
    const json_value doc = parse_response(sink.snapshot()[0]);
    EXPECT_EQ(field_string(doc, "status"), "error");
    EXPECT_EQ(field_string(doc, "error"), "overloaded");
    EXPECT_EQ(field_string(doc, "id"), "b3");
  }

  gate.release();
  ASSERT_TRUE(sink.wait_for(4));
  svc.drain(10.0);

  int ok = 0;
  int overloaded = 0;
  for (const std::string& line : sink.snapshot()) {
    const json_value doc = parse_response(line);
    if (field_string(doc, "status") == "ok") {
      ++ok;
    } else if (field_string(doc, "error") == "overloaded") {
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(overloaded, 1);

  const service_stats s = svc.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected_overloaded, 1u);
}

// ---- fairness ---------------------------------------------------------------

TEST(ServiceFairness, InteractiveClientOvertakesBulkBacklog) {
  worker_gate gate;
  service_options options = quick_options();
  options.queue_capacity = 8;
  options.on_job_start = gate.hook();

  response_sink sink;
  synthesis_service svc(options);
  // Hold the worker on a bulk job, queue three more bulk jobs, then one
  // interactive request from a second client.
  svc.submit_line(1, synth_line("blk", "01"), sink.callback());
  if (!gate.wait_for_started(1)) {
    gate.release();  // never leave the worker parked: drain would hang
    FAIL() << "worker never dequeued the blocker";
  }
  svc.submit_line(1, synth_line("b1", "0110"), sink.callback());
  svc.submit_line(1, synth_line("b2", "0110"), sink.callback());
  svc.submit_line(1, synth_line("b3", "0110"), sink.callback());
  svc.submit_line(2, synth_line("i1", "1001"), sink.callback());

  gate.release();
  ASSERT_TRUE(sink.wait_for(5));
  svc.drain(10.0);

  // Round-robin: the interactive job waits behind exactly one bulk job, not
  // the whole backlog.
  EXPECT_EQ(gate.order,
            (std::vector<std::string>{"blk", "b1", "i1", "b2", "b3"}));
}

// ---- deadlines --------------------------------------------------------------

TEST(ServiceDeadline, ExpiredOnArrivalReportsTimeout) {
  response_sink sink;
  synthesis_service svc(quick_options());
  svc.submit_line(1, synth_line("d0", "01101001", /*deadline_ms=*/0),
                  sink.callback());
  ASSERT_TRUE(sink.wait_for(1));
  svc.drain(10.0);

  const json_value doc = parse_response(sink.snapshot()[0]);
  EXPECT_EQ(field_string(doc, "status"), "timeout");
  EXPECT_EQ(field_string(doc, "id"), "d0");
  const service_stats s = svc.stats();
  EXPECT_EQ(s.completed_timeout, 1u);
  EXPECT_EQ(s.completed_ok, 0u);
}

// Regression for the drain grace race found by the thread-safety review:
// the old grace predicate (`in_flight_ == 0 && queue_.depth() == 0`) read
// "all idle" in the window where a worker had popped a job but not yet
// counted it in-flight, so a drain racing that window cancelled accepted
// work immediately — the job was answered `shutting_down` despite a
// generous grace period. The on_job_start hook runs exactly in that window,
// so this test holds the worker there, drains with a long grace from
// another thread, and asserts the accepted job still completes "ok". Runs
// under TSan in CI (the thread-sanitizer job executes test_service).
TEST(ServiceDrain, GraceCoversAPoppedButUncountedJob) {
  worker_gate gate;
  response_sink sink;
  service_options options = quick_options();
  options.on_job_start = gate.hook();
  synthesis_service svc(options);

  svc.submit_line(1, synth_line("popped", "0110"), sink.callback());
  // The worker is now parked inside the hook: job dequeued (queue empty),
  // in_flight_ still 0 — the exact pre-fix false-idle state.
  ASSERT_TRUE(gate.wait_for_started(1));
  const service_stats before = svc.stats();
  EXPECT_EQ(before.queue_depth, 0u);
  EXPECT_EQ(before.in_flight, 0u);

  std::thread drainer([&] { svc.drain(/*grace_s=*/30.0); });
  // Give the drain a moment to reach its grace wait, then let the job run.
  // (A sleep cannot prove the drain is waiting, but with the old predicate
  // this test fails deterministically: the cancel fired before release().)
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.release();
  drainer.join();

  ASSERT_TRUE(sink.wait_for(1));
  const json_value doc = parse_response(sink.snapshot()[0]);
  EXPECT_EQ(field_string(doc, "status"), "ok") << sink.snapshot()[0];
  EXPECT_EQ(field_string(doc, "id"), "popped");
  const service_stats s = svc.stats();
  EXPECT_EQ(s.completed_ok, 1u);
  EXPECT_EQ(s.rejected_shutting_down, 0u);
}

// ---- drain vs synthesize_batch ----------------------------------------------

const std::vector<std::string>& drain_tables() {
  static const std::vector<std::string> tables = {"01101001", "0110", "0001",
                                                  "11101000", "1001"};
  return tables;
}

/// Submit one request per drain table (routed to `backend` when non-empty)
/// to a fresh service with `workers` workers and no deadlines, drain it, and
/// collect each request's only output, in table order.
void drain_outputs(const std::string& backend, std::vector<json_value>& outputs,
                   service_stats& stats, int workers = 1) {
  const std::vector<std::string>& tables = drain_tables();
  response_sink sink;
  service_options options = quick_options();
  options.workers = workers;
  options.default_deadline_s = 0.0;  // unlimited, like the batch run
  synthesis_service svc(options);
  for (std::size_t k = 0; k < tables.size(); ++k) {
    // Append form: `"t" + std::to_string(k)` trips GCC 12's bogus
    // -Wrestrict at -O3 (GCC PR105329) under -Werror.
    std::string id(1, 't');
    id += std::to_string(k);
    svc.submit_line(1,
                    backend.empty() ? synth_line(id, tables[k])
                                    : backend_synth_line(id, tables[k], backend),
                    sink.callback());
  }
  svc.drain(60.0);  // in-flight and queued work all completes
  ASSERT_TRUE(sink.wait_for(tables.size()));
  stats = svc.stats();

  // Responses are matched back by id.
  const std::vector<std::string> lines = sink.snapshot();
  ASSERT_EQ(lines.size(), tables.size());
  outputs.assign(tables.size(), json_value{});
  for (const std::string& line : lines) {
    const json_value doc = parse_response(line);
    ASSERT_EQ(field_string(doc, "status"), "ok") << line;
    const std::string id = field_string(doc, "id");
    const std::optional<int> parsed = parse_count(id.substr(1), 0, 1 << 20);
    ASSERT_TRUE(parsed.has_value()) << id;
    const std::size_t k = static_cast<std::size_t>(*parsed);
    ASSERT_LT(k, tables.size());
    const json_value* items = doc.find("outputs");
    ASSERT_NE(items, nullptr);
    ASSERT_TRUE(items->is_array());
    ASSERT_EQ(items->items.size(), 1u);
    outputs[k] = items->items[0];
  }
}

/// The reference: the drain tables through synthesize_batch with the same
/// per-target options and a fresh shared store, sequentially.
synth::batch_result drain_reference(const std::vector<std::string>& backends) {
  std::vector<lm::target_spec> targets;
  for (const std::string& bits : drain_tables()) {
    targets.push_back(lm::target_spec::from_function(
        bf::truth_table::from_binary_string(bits), "f"));
  }
  cache::solution_cache store;
  synth::batch_options batch;
  batch.base = quick_options().base;
  batch.base.solutions = &store;
  batch.backends = backends;
  batch.jobs = 1;
  return synth::synthesize_batch(targets, batch);
}

TEST(ServiceDrain, ResultsBitIdenticalToSynthesizeBatch) {
  std::vector<json_value> outputs;
  service_stats s;
  ASSERT_NO_FATAL_FAILURE(drain_outputs("", outputs, s));
  const synth::batch_result reference = drain_reference({});
  ASSERT_EQ(reference.results.size(), outputs.size());
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const json_value* switches = outputs[k].find("switches");
    const json_value* lower = outputs[k].find("lb");
    ASSERT_NE(switches, nullptr);
    ASSERT_NE(lower, nullptr);
    EXPECT_EQ(static_cast<int>(switches->number),
              reference.results[k].solution_size())
        << "size mismatch for t" << k;
    EXPECT_EQ(static_cast<int>(lower->number), reference.results[k].lower_bound)
        << "lower bound mismatch for t" << k;
  }
  // Same work, same shared-store behaviour: identical hit/miss accounting.
  EXPECT_EQ(s.cache_hits, reference.cache_hits);
  EXPECT_EQ(s.cache_misses, reference.cache_misses);
}

void expect_portfolio_outputs_match_batch(int workers) {
  std::vector<json_value> outputs;
  service_stats s;
  ASSERT_NO_FATAL_FAILURE(drain_outputs("portfolio", outputs, s, workers));
  const synth::batch_result reference =
      drain_reference(janus::backend::backend_names());
  ASSERT_EQ(reference.portfolio.size(), outputs.size());
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const janus::backend::backend_result* win =
        reference.portfolio[k].winning();
    ASSERT_NE(win, nullptr) << "t" << k;
    const json_value* cost = outputs[k].find("cost");
    ASSERT_NE(cost, nullptr) << "t" << k;
    EXPECT_EQ(field_string(outputs[k], "backend"), win->backend) << "t" << k;
    EXPECT_EQ(static_cast<int>(cost->number), win->cost()) << "t" << k;
    EXPECT_EQ(field_string(outputs[k], "unit"), win->realized->cost_unit())
        << "t" << k;
  }
}

TEST(ServiceDrain, PortfolioResultsMatchSynthesizeBatch) {
  expect_portfolio_outputs_match_batch(/*workers=*/1);
}

TEST(ServiceDrain, ConcurrentPortfolioJobsShareTheRacePoolUnchanged) {
  // Four workers race their requests on the daemon's one race pool at once;
  // every reply must still equal the standalone race, which gets a pool of
  // its own per target.
  expect_portfolio_outputs_match_batch(/*workers=*/4);
}

// ---- warm restart -----------------------------------------------------------

TEST(ServiceDrain, WarmRestartAnswersFromPersistedStore) {
  const std::string store_path = "test_service_warm.store";
  std::remove(store_path.c_str());

  int cold_switches = -1;
  {
    response_sink sink;
    service_options options = quick_options();
    options.cache_path = store_path;
    synthesis_service svc(options);
    svc.submit_line(1, synth_line("cold", "01101001"), sink.callback());
    ASSERT_TRUE(sink.wait_for(1));
    const json_value doc = parse_response(sink.snapshot()[0]);
    ASSERT_EQ(field_string(doc, "status"), "ok");
    cold_switches =
        static_cast<int>(doc.find("outputs")->items[0].find("switches")->number);
    svc.drain(30.0);  // persists the store
  }

  response_sink sink;
  service_options options = quick_options();
  options.cache_path = store_path;
  synthesis_service svc(options);
  EXPECT_GE(svc.store_size(), 1u) << "persisted store not loaded";
  svc.submit_line(1, synth_line("warm", "01101001"), sink.callback());
  ASSERT_TRUE(sink.wait_for(1));
  svc.drain(30.0);

  const json_value doc = parse_response(sink.snapshot()[0]);
  ASSERT_EQ(field_string(doc, "status"), "ok");
  const json_value& out = doc.find("outputs")->items[0];
  EXPECT_TRUE(out.find("from_cache")->boolean);
  EXPECT_EQ(static_cast<int>(out.find("switches")->number), cold_switches);
  std::remove(store_path.c_str());
}

// ---- lifecycle --------------------------------------------------------------

TEST(ServiceLifecycle, SubmitAfterDrainIsShuttingDown) {
  response_sink sink;
  synthesis_service svc(quick_options());
  svc.drain(1.0);
  EXPECT_TRUE(svc.draining());

  svc.submit_line(1, synth_line("late", "0110"), sink.callback());
  svc.submit_line(1, "{\"v\":1,\"op\":\"ping\",\"id\":\"p\"}",
                  sink.callback());
  ASSERT_TRUE(sink.wait_for(2));

  const std::vector<std::string> lines = sink.snapshot();
  const json_value rejected = parse_response(lines[0]);
  EXPECT_EQ(field_string(rejected, "status"), "error");
  EXPECT_EQ(field_string(rejected, "error"), "shutting_down");
  // Inline ops keep answering during/after the drain.
  const json_value pong = parse_response(lines[1]);
  EXPECT_EQ(field_string(pong, "status"), "ok");
}

TEST(ServiceLifecycle, ShutdownOpAcksEveryTimeButSignalsOnce) {
  response_sink sink;
  synthesis_service svc(quick_options());
  std::atomic<int> signalled{0};
  svc.on_shutdown_request = [&] { ++signalled; };

  svc.submit_line(1, "{\"v\":1,\"op\":\"shutdown\",\"id\":\"s1\"}",
                  sink.callback());
  svc.submit_line(1, "{\"v\":1,\"op\":\"shutdown\",\"id\":\"s2\"}",
                  sink.callback());
  ASSERT_TRUE(sink.wait_for(2));
  EXPECT_EQ(signalled.load(), 1);
  for (const std::string& line : sink.snapshot()) {
    const json_value doc = parse_response(line);
    EXPECT_EQ(field_string(doc, "status"), "ok");
    const json_value* draining = doc.find("draining");
    ASSERT_NE(draining, nullptr);
    EXPECT_TRUE(draining->boolean);
  }
  svc.drain(1.0);
}

// ---- stats ------------------------------------------------------------------

TEST(ServiceStats, CountersTrackActivity) {
  response_sink sink;
  synthesis_service svc(quick_options());
  svc.submit_line(1, "{\"v\":1,\"op\":\"ping\"}", sink.callback());
  svc.submit_line(1, "this is not json", sink.callback());
  svc.submit_line(1, synth_line("x", "0110"), sink.callback());
  ASSERT_TRUE(sink.wait_for(3));
  svc.drain(30.0);

  const service_stats s = svc.stats();
  EXPECT_EQ(s.received, 3u);
  EXPECT_EQ(s.bad_requests, 1u);
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.completed_ok, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.latency.total, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_TRUE(s.draining);
  EXPECT_GE(s.store.stores, 1u);
  EXPECT_GE(s.store_classes, 1u);

  // The wire form of the same snapshot parses and carries the counters.
  response_sink stats_sink;
  svc.submit_line(1, "{\"v\":1,\"op\":\"stats\",\"id\":\"q\"}",
                  stats_sink.callback());
  ASSERT_TRUE(stats_sink.wait_for(1));
  const json_value doc = parse_response(stats_sink.snapshot()[0]);
  EXPECT_EQ(field_string(doc, "status"), "ok");
  const json_value* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  ASSERT_TRUE(stats->is_object());
  EXPECT_EQ(static_cast<std::uint64_t>(stats->find("completed_ok")->number),
            1u);
  ASSERT_NE(stats->find("latency"), nullptr);
  ASSERT_NE(stats->find("solver"), nullptr);
}

// ---- backend routing --------------------------------------------------------

TEST(ServiceBackends, UnknownBackendNameIsTypedBadRequest) {
  response_sink sink;
  synthesis_service svc(quick_options());
  svc.submit_line(1, backend_synth_line("b1", "0110", "nosuch"),
                  sink.callback());
  ASSERT_TRUE(sink.wait_for(1));
  const json_value doc = parse_response(sink.snapshot()[0]);
  EXPECT_EQ(field_string(doc, "status"), "error");
  EXPECT_EQ(field_string(doc, "error"), "bad_request");
  EXPECT_NE(field_string(doc, "message").find("unknown backend"),
            std::string::npos);
  // The connection-level contract: the daemon keeps answering.
  svc.submit_line(1, "{\"v\":1,\"op\":\"ping\",\"id\":\"p\"}", sink.callback());
  ASSERT_TRUE(sink.wait_for(2));
  EXPECT_EQ(field_string(parse_response(sink.snapshot()[1]), "status"), "ok");
}

TEST(ServiceBackends, NamedBackendReportsCostInItsOwnUnit) {
  response_sink sink;
  synthesis_service svc(quick_options());
  // xor2 is exactly 2 ESOP terms (a ^ b); minterm order bits "0110".
  svc.submit_line(1, backend_synth_line("e1", "0110", "esop"),
                  sink.callback());
  ASSERT_TRUE(sink.wait_for(1));
  const json_value doc = parse_response(sink.snapshot()[0]);
  EXPECT_EQ(field_string(doc, "status"), "ok");
  const json_value* outputs = doc.find("outputs");
  ASSERT_NE(outputs, nullptr);
  ASSERT_EQ(outputs->items.size(), 1u);
  const json_value& out = outputs->items[0];
  EXPECT_EQ(field_string(out, "backend"), "esop");
  EXPECT_EQ(field_string(out, "unit"), "terms");
  ASSERT_NE(out.find("cost"), nullptr);
  EXPECT_EQ(static_cast<int>(out.find("cost")->number), 2);

  const service_stats s = svc.stats();
  ASSERT_TRUE(s.backend_requests.count("esop"));
  EXPECT_EQ(s.backend_requests.at("esop"), 1u);
  EXPECT_EQ(s.backend_wins.at("esop"), 1u);
}

TEST(ServiceBackends, PortfolioRacesEveryBackendAndCountsTheWinner) {
  response_sink sink;
  synthesis_service svc(quick_options());
  svc.submit_line(1, backend_synth_line("p1", "01101000", "portfolio"),
                  sink.callback());
  ASSERT_TRUE(sink.wait_for(1));
  const json_value doc = parse_response(sink.snapshot()[0]);
  EXPECT_EQ(field_string(doc, "status"), "ok");
  const json_value* outputs = doc.find("outputs");
  ASSERT_NE(outputs, nullptr);
  ASSERT_EQ(outputs->items.size(), 1u);
  const std::string winner = field_string(outputs->items[0], "backend");
  EXPECT_TRUE(janus::backend::is_backend_name(winner)) << winner;

  const service_stats s = svc.stats();
  std::uint64_t wins = 0;
  for (const std::string& name : janus::backend::backend_names()) {
    ASSERT_TRUE(s.backend_requests.count(name)) << name;
    EXPECT_EQ(s.backend_requests.at(name), 1u);
    const auto it = s.backend_wins.find(name);
    wins += it != s.backend_wins.end() ? it->second : 0;
  }
  EXPECT_EQ(wins, 1u);

  // The /stats wire form carries the per-backend table.
  response_sink stats_sink;
  svc.submit_line(1, "{\"v\":1,\"op\":\"stats\",\"id\":\"q\"}",
                  stats_sink.callback());
  ASSERT_TRUE(stats_sink.wait_for(1));
  const json_value stats_doc = parse_response(stats_sink.snapshot()[0]);
  const json_value* stats = stats_doc.find("stats");
  ASSERT_NE(stats, nullptr);
  const json_value* backends = stats->find("backends");
  ASSERT_NE(backends, nullptr);
  ASSERT_TRUE(backends->is_object());
  const json_value* winner_entry = backends->find(winner.c_str());
  ASSERT_NE(winner_entry, nullptr);
  EXPECT_EQ(static_cast<int>(winner_entry->find("requests")->number), 1);
  EXPECT_EQ(static_cast<int>(winner_entry->find("wins")->number), 1);
}

// ---- signal watcher ---------------------------------------------------------

TEST(SignalWatcher, DeliversSignalToCallbackOffTheHandler) {
  std::atomic<int> received{0};
  {
    signal_watcher watcher({SIGUSR1},
                           [&](int signal) { received.store(signal); });
    EXPECT_EQ(watcher.fired(), 0);
    ASSERT_EQ(::raise(SIGUSR1), 0);
    EXPECT_EQ(watcher.fired(), SIGUSR1);  // recorded inside the handler
  }  // destructor joins the watcher thread: the callback has run
  EXPECT_EQ(received.load(), SIGUSR1);
}

}  // namespace
}  // namespace janus::service
