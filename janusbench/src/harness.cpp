#include "harness.hpp"

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bf/np_transform.hpp"
#include "instances/table2.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace janusbench {

using janus::bf::truth_table;

// --- seeded inputs ----------------------------------------------------------

const std::vector<std::string>& workload_rows(const std::string& workload) {
  // ladder: Table II rows whose canonical jobs=1 ladder converges with no
  // unknown probe (158 switches in total). bounds: 6-8-input rows whose full
  // ladder times out but whose bounds are exact run to run; b12_01 and
  // b12_02 (7 s of a 12 s pass) are left out to keep a pass near 4 s.
  // portfolio (and the service pool): the <= 6-input rows whose ladder
  // converges (5xp1_3 does not).
  static const std::map<std::string, std::vector<std::string>> rows = {
      {"ladder",
       {"b12_00", "b12_07", "clpl_00", "ex5_06", "ex5_10", "ex5_19", "ex5_22",
        "misex1_01", "misex1_05", "misex1_06"}},
      {"bounds",
       {"5xp1_3", "clpl_00", "ex5_08", "ex5_09", "ex5_12", "ex5_13", "ex5_25",
        "ex5_26", "ex5_28", "misex1_02", "misex1_03", "newtag_00"}},
      {"portfolio",
       {"b12_00", "b12_03", "c17_01", "dc1_00", "dc1_02", "dc1_03", "ex5_10",
        "misex1_00", "misex1_01", "misex1_04", "misex1_05", "misex1_06",
        "misex1_07", "mp2d_06"}},
  };
  const auto it = rows.find(workload);
  if (it == rows.end()) {
    throw std::invalid_argument("no batch rows for workload " + workload);
  }
  return it->second;
}

namespace {

batch_inputs canonical_inputs(const std::vector<std::string>& names) {
  batch_inputs in;
  for (const std::string& name : names) {
    const janus::instances::table2_row& row =
        janus::instances::table2_row_by_name(name);
    in.names.push_back(name);
    in.tables.push_back(
        janus::instances::make_table2_instance(row, nullptr, 0).function());
  }
  return in;
}

janus::bf::np_transform random_np(janus::rng& r, int n) {
  janus::bf::np_transform t = janus::bf::np_transform::identity(n);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        r.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(t.perm[static_cast<std::size_t>(i)], t.perm[j]);
  }
  t.flips = static_cast<std::uint32_t>(r.next_below(std::uint64_t{1} << n));
  return t;
}

/// Type-f PLA listing every minterm that is on in some output.
std::string pla_line(std::size_t index, const std::vector<truth_table>& fs) {
  const int n = fs.front().num_vars();
  std::string text = ".i " + std::to_string(n) + "\n.o " +
                     std::to_string(fs.size()) + "\n";
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    std::string outs;
    for (const truth_table& f : fs) {
      outs += f.get(m) ? '1' : '0';
    }
    if (outs.find('1') == std::string::npos) {
      continue;
    }
    for (int v = 0; v < n; ++v) {
      text += ((m >> v) & 1u) != 0 ? '1' : '0';
    }
    text += " " + outs + "\n";
  }
  text += ".e\n";
  janus::util::json_writer w;
  w.begin_object()
      .field("v", 1)
      .field("op", "synth")
      .field("id", "r" + std::to_string(index))
      .field("pla", text)
      .end_object();
  return w.str();
}

}  // namespace

std::string table_line(const std::string& id, const truth_table& f) {
  janus::util::json_writer w;
  w.begin_object()
      .field("v", 1)
      .field("op", "synth")
      .field("id", id)
      .field("n", f.num_vars())
      .field("table", f.to_binary_string())
      .end_object();
  return w.str();
}

batch_inputs make_batch_inputs(const std::string& workload,
                               std::uint64_t seed) {
  batch_inputs in = canonical_inputs(workload_rows(workload));
  janus::rng r(seed * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL);
  for (std::size_t i = in.names.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(r.next_below(i + 1));
    std::swap(in.names[i], in.names[j]);
    std::swap(in.tables[i], in.tables[j]);
  }
  return in;
}

batch_inputs make_service_pool() {
  return canonical_inputs(workload_rows("portfolio"));
}

std::vector<service_request> make_service_stream(const batch_inputs& pool,
                                                 std::uint64_t seed,
                                                 std::size_t count) {
  std::vector<int> wide;  // 5-6 inputs: NP-variant hits
  std::vector<int> six;   // 6 inputs: PLA outputs share an input count
  for (std::size_t p = 0; p < pool.tables.size(); ++p) {
    const int n = pool.tables[p].num_vars();
    if (n >= 5) {
      wide.push_back(static_cast<int>(p));
    }
    if (n == 6) {
      six.push_back(static_cast<int>(p));
    }
  }
  janus::rng r(seed * 0xd1342543de82ef95ULL + 0xbb67ae8584caa73bULL);
  std::vector<service_request> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    service_request q;
    const double u = r.next_double();
    if (u < 0.7) {
      q.type = service_request::kind::hit;
      const int p = wide[r.next_below(wide.size())];
      const truth_table& f = pool.tables[static_cast<std::size_t>(p)];
      q.pool = {p};
      q.line = table_line("r" + std::to_string(i),
                          random_np(r, f.num_vars()).apply(f));
    } else if (u < 0.9) {
      // Sums of 1-3 random cubes of 2-3 literals: uniformly random 4-input
      // tables include parity-like classes whose ladder runs for 20 s and
      // more, one of which would dominate a whole run.
      q.type = service_request::kind::miss;
      truth_table f(4);
      const std::uint64_t cubes = 1 + r.next_below(3);
      for (std::uint64_t c = 0; c < cubes; ++c) {
        const std::uint64_t len = 2 + r.next_below(2);
        truth_table cube = truth_table::ones(4);
        std::vector<int> vars = {0, 1, 2, 3};
        for (std::uint64_t k = 0; k < len; ++k) {
          const std::size_t pick = k + r.next_below(4 - k);
          std::swap(vars[k], vars[pick]);
          truth_table lit = truth_table::variable(4, vars[k]);
          if (r.next_bool()) {
            lit = ~lit;
          }
          cube &= lit;
        }
        f |= cube;
      }
      q.table = f;
      q.line = table_line("r" + std::to_string(i), f);
    } else {
      q.type = service_request::kind::pla;
      const std::size_t k = 2 + r.next_below(2);
      std::vector<int> picks = six;
      for (std::size_t a = 0; a < k; ++a) {
        const std::size_t b = a + r.next_below(picks.size() - a);
        std::swap(picks[a], picks[b]);
      }
      const janus::bf::np_transform t = random_np(r, 6);
      std::vector<truth_table> outs;
      for (std::size_t a = 0; a < k; ++a) {
        q.pool.push_back(picks[a]);
        outs.push_back(t.apply(pool.tables[static_cast<std::size_t>(picks[a])]));
      }
      q.line = pla_line(i, outs);
    }
    stream.push_back(std::move(q));
  }
  return stream;
}

std::string serialize(const batch_inputs& inputs) {
  std::string out;
  for (std::size_t i = 0; i < inputs.names.size(); ++i) {
    out += inputs.names[i] + " " + inputs.tables[i].to_binary_string() + "\n";
  }
  return out;
}

std::string serialize(const std::vector<service_request>& s) {
  std::string out;
  for (const service_request& q : s) {
    out += q.line + "\n";
  }
  return out;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {
std::size_t nearest_rank(std::size_t n, int p) {
  // ceil(p * n / 100) in integers; at least 1.
  const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  return std::max<std::size_t>(rank, 1);
}
}  // namespace

int tail_percentile(std::size_t n) {
  for (int p = 99; p > 50; --p) {
    if (n >= nearest_rank(n, p) + 10) {
      return p;
    }
  }
  return 50;
}

double percentile(std::vector<double> samples, int p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

summary summarize(const std::vector<double>& samples) {
  summary s;
  s.n = samples.size();
  s.p50 = median(samples);
  s.tail_pct = tail_percentile(samples.size());
  s.tail = percentile(samples, s.tail_pct);
  return s;
}

// --- open loop --------------------------------------------------------------

double open_loop::record_send(std::size_t i, double sent_s) {
  const double late = std::max(0.0, sent_s - due(i));
  lateness_.push_back(late);
  return late;
}

// --- spans ------------------------------------------------------------------

int tracer::open(std::string name, std::string tag) {
  if (!enabled_) {
    return -1;
  }
  span s;
  s.name = std::move(name);
  s.tag = std::move(tag);
  s.parent = stack_.empty() ? -1 : stack_.back();
  if (s.tag.empty() && s.parent >= 0) {
    s.tag = spans_[static_cast<std::size_t>(s.parent)].tag;
  }
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void tracer::close(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end_s = now_s();
  // Spans close innermost first; tolerate a caller closing out of order.
  const auto it = std::find(stack_.begin(), stack_.end(), index);
  stack_.erase(it, stack_.end());
}

void tracer::add(span s) {
  if (enabled_) {
    spans_.push_back(std::move(s));
  }
}

std::vector<double> self_times(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const span& s : spans) {
    if (s.parent >= 0) {
      const span& p = spans[static_cast<std::size_t>(s.parent)];
      const double a = std::max(s.start_s, p.start_s);
      const double b = std::min(s.end_s, p.end_s);
      if (b > a) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
      }
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open_run = false;
    for (const auto& [a, b] : iv) {
      if (!open_run || a > run_end) {
        if (open_run) {
          covered += run_end - run_start;
        }
        run_start = a;
        run_end = b;
        open_run = true;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (open_run) {
      covered += run_end - run_start;
    }
    self[i] = std::max(0.0, (spans[i].end_s - spans[i].start_s) - covered);
  }
  return self;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

namespace {
bool descends_from(const std::vector<span>& spans, int i, int root) {
  while (i >= 0) {
    if (i == root) {
      return true;
    }
    i = spans[static_cast<std::size_t>(i)].parent;
  }
  return false;
}
}  // namespace

std::vector<layer_row> attribute(const std::vector<span>& spans, int root) {
  const std::vector<double> self = self_times(spans);
  const span& r = spans[static_cast<std::size_t>(root)];
  const double wall = r.end_s - r.start_s;
  std::map<std::string, layer_row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!descends_from(spans, static_cast<int>(i), root)) {
      continue;
    }
    const std::string layer = layer_of(spans[i].name);
    layer_row& row = rows[layer];
    row.layer = layer;
    ++row.count;
    row.self_s += self[i];
    const int p = spans[i].parent;
    if (p < 0 || layer_of(spans[static_cast<std::size_t>(p)].name) != layer) {
      row.busy_s += spans[i].end_s - spans[i].start_s;
    }
  }
  std::vector<layer_row> out;
  for (auto& [name, row] : rows) {
    row.share = wall > 0.0 ? row.self_s / wall : 0.0;
    out.push_back(row);
  }
  return out;
}

double coverage(const std::vector<span>& spans, int root) {
  double named = 0.0;
  double wall = 0.0;
  for (const layer_row& row : attribute(spans, root)) {
    wall += row.self_s;
    if (row.layer != "bench") {
      named += row.self_s;
    }
  }
  return wall > 0.0 ? named / wall : 0.0;
}

std::string chrome_trace(const std::vector<span>& spans) {
  double origin = spans.empty() ? 0.0 : spans.front().start_s;
  for (const span& s : spans) {
    origin = std::min(origin, s.start_s);
  }
  janus::util::json_writer w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    w.begin_object()
        .field("name", s.name)
        .field("cat", layer_of(s.name))
        .field("ph", "X");
    w.key("ts").value((s.start_s - origin) * 1e6, 3);
    w.key("dur").value((s.end_s - s.start_s) * 1e6, 3);
    w.field("pid", 1).field("tid", s.tid);
    w.key("args")
        .begin_object()
        .field("id", static_cast<std::int64_t>(i))
        .field("parent", static_cast<std::int64_t>(s.parent))
        .field("tag", s.tag)
        .end_object();
    w.end_object();
  }
  w.end_array().field("displayTimeUnit", "ms").end_object();
  return w.str();
}

// --- process ----------------------------------------------------------------

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace janusbench
