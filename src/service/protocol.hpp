// The janusd wire protocol: newline-delimited JSON request/response, v1.
//
// One request per line, one response line per request, in any interleaving
// (responses carry the request's `id` back, so pipelined clients can match).
// The full grammar lives in docs/service.md; the shape in brief:
//
//   {"v":1, "op":"synth", "id":"r1", "n":3, "table":"01101001"}
//   {"v":1, "op":"synth", "id":"r2", "pla":".i 2\n.o 1\n11 1\n.e\n",
//    "deadline_ms": 500}
//   {"v":1, "op":"synth", "id":"r3", "n":3, "table":"01101001",
//    "backend":"portfolio"}
//   {"v":1, "op":"stats", "id":"s1"}
//   {"v":1, "op":"ping"}
//   {"v":1, "op":"shutdown"}
//
//   {"v":1, "id":"r1", "status":"ok", "outputs":[...], "ms": 1.25}
//   {"v":1, "id":"r2", "status":"timeout", "outputs":[...], "ms": 500.1}
//   {"v":1, "id":"r9", "status":"error", "error":"overloaded",
//    "message":"queue full (64 queued)"}
//
// Parsing is total: any input line maps to either a request or a typed
// `bad_request` explanation — never an exception or a crash (the protocol
// fuzz axis drives adversarial lines straight into parse_request). Limits
// (line length, input count, output count, deadline cap) are explicit
// parameters so the daemon and the tests agree on them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lm/target.hpp"

namespace janus::service {

inline constexpr int kProtocolVersion = 1;

enum class request_op : unsigned char { synth, stats, ping, shutdown };

[[nodiscard]] const char* op_name(request_op op);

/// Typed error codes a response can carry; stable wire strings.
enum class error_code : unsigned char {
  bad_request,    ///< unparseable or invalid request line
  overloaded,     ///< admission control rejected: queue full
  shutting_down,  ///< daemon is draining; no new work accepted
  internal,       ///< synthesis failed unexpectedly (bug surface, not hidden)
};

[[nodiscard]] const char* error_name(error_code code);

struct protocol_limits {
  std::size_t max_line_bytes = 1 << 20;  ///< request line length cap
  int max_vars = 6;                      ///< per-target input cap
  int max_outputs = 16;                  ///< targets per synth request
  double max_deadline_s = 300.0;         ///< client deadline cap
  std::size_t max_id_bytes = 128;        ///< request id length cap
};

/// A parsed, validated request.
struct request {
  request_op op = request_op::ping;
  std::string id;  ///< echoed in the response; may be empty
  /// Synthesis targets (synth op only): each PLA output, or the one
  /// table-form function.
  std::vector<lm::target_spec> targets;
  double deadline_s = 0.0;  ///< 0 = server default
  /// Optional "backend" field: a registered backend name routes the request
  /// through that engine, "portfolio" races them all. Validated at parse
  /// time — an unknown name is a typed bad_request, never a dropped
  /// connection. Empty = the classic JANUS path.
  std::string backend;
};

struct parse_outcome {
  std::optional<request> req;  ///< engaged iff the line was valid
  std::string error;           ///< bad_request message otherwise
  std::string id;              ///< request id, when one could be recovered
};

/// Parse one request line. Never throws.
[[nodiscard]] parse_outcome parse_request(std::string_view line,
                                          const protocol_limits& limits);

/// Per-output slice of a synth response.
struct output_report {
  std::string name;
  std::string dims = "-";  ///< "RxC"; "-" without a lattice
  int switches = 0;
  int lower_bound = 0;
  int new_upper_bound = 0;
  bool from_cache = false;
  bool timed_out = false;  ///< this output's ladder hit the deadline
  /// Backend-routed requests only: the engine that produced this output and
  /// its cost in that engine's own unit ("switches", "terms", "steps").
  /// Emitted on the wire only when `backend` is non-empty.
  std::string backend;
  int cost = 0;
  std::string cost_unit;
};

/// {"v":1,"id":...,"status":"ok","outputs":[...],"ms":...}
[[nodiscard]] std::string ok_response(std::string_view id,
                                      const std::vector<output_report>& outputs,
                                      double ms);

/// {"v":1,...,"status":"timeout",...} — the deadline expired before every
/// output had a verified solution; `outputs` holds the ones that finished.
[[nodiscard]] std::string timeout_response(
    std::string_view id, const std::vector<output_report>& outputs, double ms);

/// {"v":1,...,"status":"error","error":<code>,"message":...}
[[nodiscard]] std::string error_response(std::string_view id, error_code code,
                                         std::string_view message);

/// {"v":1,...,"status":"ok","pong":true}
[[nodiscard]] std::string pong_response(std::string_view id);

/// {"v":1,...,"status":"ok","draining":true} — acknowledgement sent before
/// the daemon begins its drain.
[[nodiscard]] std::string shutdown_response(std::string_view id);

}  // namespace janus::service
