// Tests of the benchmark's own code: seed determinism, the percentile rule,
// open-loop accounting and self-time arithmetic. Plain asserts that stay on
// in every build; exit code 1 on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "service/json_value.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void seed_determinism() {
  using janusbench::make_batch_inputs;
  using janusbench::serialize;
  for (const char* w : {"ladder", "bounds", "portfolio"}) {
    const std::string a = serialize(make_batch_inputs(w, 7));
    expect(a == serialize(make_batch_inputs(w, 7)),
           "same seed, same batch inputs");
    expect(a != serialize(make_batch_inputs(w, 8)),
           "different seed, different batch inputs");
  }
  const janusbench::batch_inputs pool = janusbench::make_service_pool();
  const std::string s = serialize(janusbench::make_service_stream(pool, 3, 300));
  expect(s == serialize(janusbench::make_service_stream(pool, 3, 300)),
         "same seed, same request stream");
  expect(s != serialize(janusbench::make_service_stream(pool, 4, 300)),
         "different seed, different request stream");
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t plas = 0;
  for (const auto& q : janusbench::make_service_stream(pool, 3, 2000)) {
    expect(janus::service::json_parse(q.line).value.has_value(),
           "request lines are JSON");
    switch (q.type) {
      case janusbench::service_request::kind::hit: ++hits; break;
      case janusbench::service_request::kind::miss: ++misses; break;
      case janusbench::service_request::kind::pla: ++plas; break;
    }
  }
  expect(hits > 1300 && hits < 1500, "~70% hits");
  expect(misses > 330 && misses < 470, "~20% misses");
  expect(plas > 130 && plas < 270, "~10% PLAs");
}

void percentile_rule() {
  using janusbench::tail_percentile;
  expect(tail_percentile(1000) == 99, "p99 needs 1000 samples");
  expect(tail_percentile(999) == 98, "999 samples: p98");
  expect(tail_percentile(40) == 75, "40 samples: p75");
  expect(tail_percentile(20) == 50, "20 samples: the median");
  expect(tail_percentile(5) == 50, "too few samples: the median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(i);
  }
  expect(near(janusbench::percentile(v, 99), 990.0), "nearest-rank p99");
  expect(near(janusbench::percentile(v, 50), 500.0), "nearest-rank p50");
  const janusbench::summary s = janusbench::summarize(v);
  expect(s.tail_pct == 99 && near(s.tail, 990.0) && near(s.p50, 500.5),
         "summary of 1..1000");
  // Exactly ten samples lie beyond the reported tail.
  std::size_t beyond = 0;
  for (const double x : v) {
    beyond += x > s.tail ? 1 : 0;
  }
  expect(beyond == 10, "ten samples beyond p99 of 1000");
}

void open_loop_accounting() {
  janusbench::open_loop loop(10.0, 4.0);  // due at 10.00, 10.25, 10.50, ...
  expect(near(loop.due(0), 10.0) && near(loop.due(3), 10.75), "due times");
  expect(near(loop.record_send(0, 10.0), 0.0), "on time");
  expect(near(loop.record_send(1, 10.40), 0.15), "late send");
  expect(near(loop.record_send(2, 10.45), 0.0), "early send is not late");
  expect(loop.lateness().size() == 3, "one lateness per send");
  // A stall charges the request's wait from its due time, not its send.
  expect(near(loop.latency(1, 10.60), 0.35), "latency from due time");
}

void self_time_arithmetic() {
  using janusbench::span;
  std::vector<span> spans = {
      {"bench.pass", 0.0, 10.0, -1, "", 0},
      {"synth.run", 1.0, 5.0, 0, "a", 0},
      {"lm.probe", 2.0, 3.0, 1, "a", 0},
      {"lm.probe", 2.5, 4.0, 1, "a", 1},  // overlaps its sibling
      {"bf.minimize", 6.0, 7.0, 0, "b", 0},
      {"sat.solve", 9.5, 11.0, 0, "b", 0},  // runs past its parent
  };
  const std::vector<double> self = janusbench::self_times(spans);
  expect(near(self[0], 10.0 - 4.0 - 1.0 - 0.5), "root minus clipped children");
  expect(near(self[1], 4.0 - 2.0), "overlapping children count once");
  expect(near(self[2], 1.0) && near(self[4], 1.0), "leaves keep their time");
  const std::vector<janusbench::layer_row> rows = janusbench::attribute(spans, 0);
  double share = 0.0;
  for (const auto& row : rows) {
    share += row.share;
  }
  expect(std::fabs(share - (4.5 + 2.0 + 2.5 + 1.0 + 1.5) / 10.0) < 1e-9,
         "shares sum the self times");
  expect(near(janusbench::coverage(spans, 0), 7.0 / 11.5),
         "coverage excludes bench spans");
  janusbench::tracer tr(true);
  {
    janusbench::tracer::scope outer(tr, "bench.target", "t1");
    janusbench::tracer::scope inner(tr, "synth.lb");
  }
  expect(tr.spans().size() == 2 && tr.spans()[1].parent == 0 &&
             tr.spans()[1].tag == "t1",
         "nested scopes record parent and inherit the tag");
  janusbench::tracer off(false);
  { janusbench::tracer::scope s(off, "bench.target"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
  expect(janus::service::json_parse(janusbench::chrome_trace(spans))
             .value.has_value(),
         "chrome trace is JSON");
}

}  // namespace

int main() {
  seed_determinism();
  percentile_rule();
  open_loop_accounting();
  self_time_arithmetic();
  if (failures == 0) {
    std::printf("janusbench_selftest: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
