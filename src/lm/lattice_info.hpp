// Cached per-dimension lattice data: the irredundant paths of both views.
//
// The dichotomic search probes many dimension pairs. The structural check
// and the clause estimate need only each view's path count, cell total and
// length profile, so an entry holds those, counted once per (rows, cols).
// The path cells are needed only by the encoder, for the one side it
// encodes, and are enumerated again on that first request, once, into one
// flat array. Most probed dims never reach the encoder: the DS row ladder's
// 2×k lattices have 2^k dual paths and fail the structural check on their
// 4-connected side. Lattices whose path count exceeds the cap are marked
// oversized; callers treat them as "cannot encode" (the same give-up behavior
// the paper's time limit induces).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "lattice/dims.hpp"
#include "lattice/paths.hpp"
#include "util/thread_annotations.hpp"

namespace janus::lm {

/// One view's irredundant paths. The count, cell total and length histogram
/// are filled on construction; the cells only on the first `cells()` call.
/// Copies share the cells, which are written once and read-only after.
class path_family {
 public:
  path_family() = default;
  /// Counts the paths of `conn` on `d`, stopping at the first path past
  /// `max_paths` (size() is then max_paths + 1 and the counts are partial).
  path_family(const lattice::dims& d, lattice::connectivity conn,
              std::size_t max_paths);

  [[nodiscard]] std::size_t size() const { return count_; }
  /// Cells of all paths together.
  [[nodiscard]] std::uint64_t total_cells() const { return total_cells_; }
  /// Number of paths of each length, indexed by length; empty without paths.
  [[nodiscard]] const std::vector<std::uint32_t>& length_counts() const {
    return length_counts_;
  }
  [[nodiscard]] int max_length() const {
    return length_counts_.empty() ? 0
                                  : static_cast<int>(length_counts_.size()) - 1;
  }

  /// The paths in enumeration order. Enumerates on the first call; safe to
  /// call from several threads.
  [[nodiscard]] const lattice::path_list& cells() const;
  /// Whether cells() has run (on this family or a copy of it).
  [[nodiscard]] bool materialized() const {
    return lazy_ != nullptr && lazy_->done.load();
  }

 private:
  struct lazy_cells {
    std::once_flag once;
    std::atomic<bool> done{false};  // lint: unguarded(set after `once` writes paths)
    lattice::path_list paths;  ///< written once under `once`
  };

  lattice::dims d_{};
  lattice::connectivity conn_ = lattice::connectivity::four_top_bottom;
  std::size_t count_ = 0;
  std::uint64_t total_cells_ = 0;
  std::vector<std::uint32_t> length_counts_;
  std::shared_ptr<lazy_cells> lazy_;
};

struct lattice_info {
  lattice::dims d;
  bool oversized = false;   ///< more than max_paths in some view
  path_family paths_4tb;    ///< products of the lattice function
  path_family paths_8lr;    ///< products of its dual

  [[nodiscard]] int max_len_4tb() const { return paths_4tb.max_length(); }
  [[nodiscard]] int max_len_8lr() const { return paths_8lr.max_length(); }
};

/// Cache keyed by dimensions. Thread-safe: concurrent dimension probes hit
/// it from pool workers. Each entry is counted exactly once (call_once);
/// two threads asking for different dimensions count concurrently, two
/// asking for the same one share the work. Returned references stay valid
/// for the cache's lifetime — entries are never evicted.
class lattice_info_cache {
 public:
  explicit lattice_info_cache(std::size_t max_paths = 200'000)
      : max_paths_(max_paths) {}

  /// Borrowing accessor; the cache owns the entry.
  const lattice_info& get(const lattice::dims& d) JANUS_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t max_paths() const { return max_paths_; }

  /// Path cells materialized so far, over every built entry and view.
  [[nodiscard]] std::uint64_t materialized_cells() const
      JANUS_EXCLUDES(mutex_);

 private:
  struct slot {
    std::once_flag once;
    std::atomic<bool> built{false};  // lint: unguarded(set after `once` writes info)
    lattice_info info;  ///< written once under `once`, read-only after
  };

  std::size_t max_paths_;
  mutable util::mutex mutex_;  // guards the map only, not entry construction
  std::map<std::pair<int, int>, std::shared_ptr<slot>> entries_
      JANUS_GUARDED_BY(mutex_);
};

}  // namespace janus::lm
