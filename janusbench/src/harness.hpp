// The benchmark's own machinery: seeded inputs, statistics, the open-loop
// schedule, outside-in spans and the result document.
//
// Nothing here reaches into the program's internals: inputs are generated
// from the seed and handed to the public entry points, and every span is
// recorded by the benchmark around a public call (see workloads.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bf/truth_table.hpp"

namespace janusbench {

// --- seeded inputs ----------------------------------------------------------

/// Table II stand-ins of each batch workload, in their canonical order.
[[nodiscard]] const std::vector<std::string>& workload_rows(
    const std::string& workload);

/// The function set of a batch workload: the canonical (salt 0) stand-ins of
/// its rows, in a seed-shuffled order. The functions themselves do not
/// depend on the seed (README: re-rolled stand-ins change a ladder's SAT time
/// by 10x and more, far past any bound), the order of a pass does.
struct batch_inputs {
  std::vector<std::string> names;
  std::vector<janus::bf::truth_table> tables;
};
[[nodiscard]] batch_inputs make_batch_inputs(const std::string& workload,
                                             std::uint64_t seed);

/// One janusd request line of the service stream, with what the check needs.
struct service_request {
  enum class kind : std::uint8_t { hit, miss, pla };
  kind type = kind::hit;
  std::string line;  ///< protocol line, id "r<index>"
  /// Pool index behind each output (hit, pla); empty for a miss.
  std::vector<int> pool;
  /// The function of a miss (the check runs its own ladder on it).
  janus::bf::truth_table table;
};

/// A janusd "synth" request line for one truth table.
[[nodiscard]] std::string table_line(const std::string& id,
                                     const janus::bf::truth_table& f);

/// The service pool: converged <= 6-input stand-ins (the portfolio rows).
[[nodiscard]] batch_inputs make_service_pool();

/// `count` requests drawn from `seed`: ~70% NP-variants of 5-6-input pool
/// functions, ~20% fresh random 4-input functions (sums of 1-3 random
/// cubes), ~10% 2-3-output PLAs of 6-input pool functions under one shared
/// NP transform.
[[nodiscard]] std::vector<service_request> make_service_stream(
    const batch_inputs& pool, std::uint64_t seed, std::size_t count);

/// Byte form of the inputs, for the determinism tests.
[[nodiscard]] std::string serialize(const batch_inputs& inputs);
[[nodiscard]] std::string serialize(const std::vector<service_request>& s);

// --- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> samples);

/// The highest integer percentile p in [50, 99] that has at least ten
/// samples beyond it (n - ceil(p * n / 100) >= 10); 50 when even the median
/// has fewer than ten beyond it.
[[nodiscard]] int tail_percentile(std::size_t n);

/// Nearest-rank percentile: the ceil(p * n / 100)-th smallest sample.
[[nodiscard]] double percentile(std::vector<double> samples, int p);

/// Median and tail (at tail_percentile) of a sample set.
struct summary {
  double p50 = 0.0;
  double tail = 0.0;
  int tail_pct = 50;
  std::size_t n = 0;
};
[[nodiscard]] summary summarize(const std::vector<double>& samples);

// --- open loop --------------------------------------------------------------

/// Fixed-rate schedule: request i is due at start + i / rate. Latency runs
/// from the due time, so a stall also charges the requests queued behind it;
/// lateness is how far the generator's actual send trailed the due time.
class open_loop {
 public:
  open_loop(double start_s, double rate_per_s)
      : start_s_(start_s), period_s_(1.0 / rate_per_s) {}

  [[nodiscard]] double due(std::size_t i) const {
    return start_s_ + static_cast<double>(i) * period_s_;
  }
  /// Record request i sent at `sent_s`; returns its lateness (>= 0).
  double record_send(std::size_t i, double sent_s);
  /// Latency of request i answered at `done_s`, measured from its due time.
  [[nodiscard]] double latency(std::size_t i, double done_s) const {
    return done_s - due(i);
  }
  [[nodiscard]] const std::vector<double>& lateness() const {
    return lateness_;
  }

 private:
  double start_s_;
  double period_s_;
  std::vector<double> lateness_;
};

// --- spans ------------------------------------------------------------------

/// One timed call. `name` is "<layer>.<what>"; `parent` indexes the span that
/// caused it (-1 for a root); `tag` is the target or request id.
struct span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::string tag;
  int tid = 0;
};

/// In-memory span recorder for one thread of nesting (the traced batch
/// passes run at jobs=1). Disabled recorders cost one branch per span.
class tracer {
 public:
  explicit tracer(bool enabled) : enabled_(enabled) {}

  /// Open a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(std::string name, std::string tag = {});
  void close(int index);
  /// A span timed elsewhere (another thread), attached under `parent`.
  void add(span s);

  class scope {
   public:
    scope(tracer& t, std::string name, std::string tag = {})
        : tracer_(t), index_(t.open(std::move(name), std::move(tag))) {}
    ~scope() { tracer_.close(index_); }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer& tracer_;
    int index_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<span> spans_;
  std::vector<int> stack_;
};

/// Per span: its duration minus the part of its interval that its children
/// cover (children may overlap; their union counts once).
[[nodiscard]] std::vector<double> self_times(const std::vector<span>& spans);

/// "synth" for "synth.ub.ds".
[[nodiscard]] std::string layer_of(const std::string& span_name);

/// Per-layer attribution over the spans under root span `root`.
struct layer_row {
  std::string layer;
  std::size_t count = 0;
  double busy_s = 0.0;  ///< outermost spans of the layer, summed
  double self_s = 0.0;
  double share = 0.0;   ///< self / root duration
};
[[nodiscard]] std::vector<layer_row> attribute(const std::vector<span>& spans,
                                               int root);

/// Share of root span `root` covered by descendants outside layer "bench".
[[nodiscard]] double coverage(const std::vector<span>& spans, int root);

/// Chrome trace-event JSON ("X" complete events, microseconds).
[[nodiscard]] std::string chrome_trace(const std::vector<span>& spans);

// --- process ----------------------------------------------------------------

/// Seconds on a process-wide monotonic clock.
[[nodiscard]] double now_s();
/// User + system CPU seconds of this process.
[[nodiscard]] double cpu_s();
/// Peak resident set of this process since start or the last
/// reset_peak_rss(), MB.
[[nodiscard]] double peak_rss_mb();
/// Return freed heap to the system and restart the peak at the current
/// resident set (Linux; elsewhere the peak runs from process start).
void reset_peak_rss();

}  // namespace janusbench
