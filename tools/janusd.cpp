// janusd — the JANUS synthesis daemon.
//
// Serves PLA / truth-table synthesis jobs over a newline-delimited JSON
// protocol (docs/service.md) on a Unix domain socket, with one warm
// solution/lattice-info cache shared across all requests, bounded-queue
// admission control, per-client round-robin fairness, and per-request
// deadlines. SIGINT/SIGTERM trigger a graceful drain: stop accepting,
// finish (or cancel, past the grace period) in-flight work, persist the
// cache atomically, exit 0.
//
//   janusd --socket /tmp/janusd.sock --cache /var/tmp/janus.cache
//   printf '{"v":1,"op":"synth","id":"r1","n":3,"table":"01101001"}\n' |
//     nc -U /tmp/janusd.sock
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "service/service.hpp"
#include "service/signals.hpp"
#include "service/socket_server.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

namespace {

struct daemon_config {
  std::string socket_path = "/tmp/janusd.sock";
  std::string cache_path;
  int workers = 1;
  std::size_t queue_capacity = 64;
  double default_deadline_s = 30.0;
  double drain_grace_s = 60.0;
  double time_limit_s = 60.0;  ///< per-target engine budget
  bool verbose = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --socket PATH         listen socket (default /tmp/janusd.sock)\n"
               "  --cache PATH          persistent solution cache; loaded warm on\n"
               "                        start, saved atomically on drain\n"
               "  --workers N           synthesis worker threads (default 1)\n"
               "  --queue N             admission bound: queued jobs before\n"
               "                        requests get 'overloaded' (default 64)\n"
               "  --default-deadline S  deadline for requests without one\n"
               "                        (default 30; 0 = unlimited)\n"
               "  --drain-grace S       drain grace period before in-flight work\n"
               "                        is cancelled (default 60)\n"
               "  --time-limit S        per-target synthesis budget (default 60)\n"
               "  --verbose             info-level logging\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace janus;

  daemon_config cfg;
  const auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "janusd: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      cfg.socket_path = need_value(i++);
    } else if (arg == "--cache") {
      cfg.cache_path = need_value(i++);
    } else if (arg == "--workers") {
      // Strict parse: atoi turns garbage into 0 workers silently.
      const auto n = janus::parse_count(need_value(i++), 1, 4096);
      if (!n.has_value()) {
        std::fprintf(stderr, "janusd: --workers needs a count in [1, 4096]\n");
        return 2;
      }
      cfg.workers = *n;
    } else if (arg == "--queue") {
      const auto n = janus::parse_count(need_value(i++), 1, 1 << 20);
      if (!n.has_value()) {
        std::fprintf(stderr, "janusd: --queue needs a count in [1, 2^20]\n");
        return 2;
      }
      cfg.queue_capacity = static_cast<std::size_t>(*n);
    } else if (arg == "--default-deadline" || arg == "--drain-grace" ||
               arg == "--time-limit") {
      // Zero means "unlimited" for the default deadline and "cancel at
      // once" for the drain grace; an engine budget must be positive.
      const double min = arg == "--time-limit" ? 0.001 : 0.0;
      const auto s = janus::parse_seconds(need_value(i++), min, 1e7);
      if (!s.has_value()) {
        std::fprintf(stderr, "janusd: %s needs seconds in [%g, 1e7]\n",
                     arg.c_str(), min);
        usage(argv[0]);
        return 2;
      }
      (arg == "--default-deadline" ? cfg.default_deadline_s
       : arg == "--drain-grace"    ? cfg.drain_grace_s
                                   : cfg.time_limit_s) = *s;
    } else if (arg == "--verbose") {
      cfg.verbose = true;
    } else if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "janusd: unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  set_log_level(cfg.verbose ? log_level::info : log_level::warn);

  try {
    service::service_options options;
    options.workers = cfg.workers;
    options.queue_capacity = cfg.queue_capacity;
    options.default_deadline_s = cfg.default_deadline_s;
    options.drain_grace_s = cfg.drain_grace_s;
    options.cache_path = cfg.cache_path;
    options.base.time_limit_s = cfg.time_limit_s;
    service::synthesis_service service(options);

    service::socket_server server(
        cfg.socket_path,
        [&service](std::uint64_t client, std::string_view line,
                   std::function<void(std::string)> respond) {
          service.submit_line(client, line, std::move(respond));
        },
        options.limits.max_line_bytes);

    // A protocol-level shutdown op and SIGINT/SIGTERM take the same path:
    // wake the accept loop, then drain below. request_stop is pipe-based and
    // idempotent, so the three sources may race freely.
    service.on_shutdown_request = [&server] { server.request_stop(); };
    service::signal_watcher signals(
        {SIGINT, SIGTERM}, [&server](int) { server.request_stop(); });

    std::fprintf(stderr, "janusd: listening on %s\n", cfg.socket_path.c_str());
    server.run();

    std::fprintf(stderr, "janusd: draining\n");
    service.drain();
    std::fprintf(stderr, "janusd: drained cleanly\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "janusd: fatal: %s\n", e.what());
    return 1;
  }
}
