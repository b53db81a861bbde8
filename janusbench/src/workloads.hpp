// The four workloads and the result document they write.
#pragma once

#include <cstdint>
#include <string>

namespace janusbench {

struct run_options {
  std::string workload;  ///< ladder | bounds | service | portfolio
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measuring time of one run
  bool trace = false;     ///< traced run: per-layer metrics, trace file
  std::string work_dir;   ///< scratch files: service store, trace file
  std::string rev;        ///< source revision for the provenance block
};

/// Run one workload and return its result document (JSON). The document's
/// "correct" is false when any output failed the benchmark's own checks;
/// comparing sizes with the committed reference is run.py's half.
[[nodiscard]] std::string run_workload(const run_options& options);

/// Reference document: jobs=1 results of every batch workload and each
/// backend's solo cost on the portfolio rows (run.py --write-reference).
[[nodiscard]] std::string reference_document();

}  // namespace janusbench
