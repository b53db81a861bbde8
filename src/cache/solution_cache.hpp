// Cross-target solution cache keyed on NP-canonical truth tables.
//
// Every output of a JANUS-MF run, every target of a batch and every repeated
// CLI invocation climbs its own dichotomic ladder — yet many of those targets
// are the same function up to input relabeling/complementation. This store
// keys completed single-output solutions on the NP-canonical form of the
// target (src/bf/np_transform.hpp) and, on a hit, maps the cached lattice
// back through the inverse transform: cell variables are relabeled and the
// polarities of complemented inputs flipped; constants and the grid are
// untouched, so the hit is switch-for-switch the size the ladder would have
// converged to.
//
// Soundness: a hit is only ever reported after the mapped-back lattice passes
// `lattice_mapping::realizes` — the same independent BFS oracle every SAT
// model must pass — so a transform bug fails loudly (check_error), never
// silently returns a wrong lattice. Only *completed* runs (ladder converged,
// no time limit) are stored, keeping cached sizes bit-identical to what a
// fresh run would report.
//
// Thread safety: all members are safe to call concurrently; batch synthesis
// shares one store across all worker threads. The optional persistent layer
// (`load_file` / `save_file`) serializes the store as a line-oriented text
// file so repeated runs and PLA re-synthesis skip solved classes entirely.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>

#include "bf/np_transform.hpp"
#include "lattice/mapping.hpp"
#include "util/lock_order.hpp"
#include "util/thread_annotations.hpp"

namespace janus::cache {

/// The lattice realizing t.apply(f), given `m` realizing f: literal cells are
/// relabeled to t.perm and flipped per t.flips; constants stay.
[[nodiscard]] lattice::lattice_mapping transform_mapping(
    const lattice::lattice_mapping& m, const bf::np_transform& t);

struct cache_stats {
  std::uint64_t hits = 0;    ///< lookups answered (and oracle-verified)
  std::uint64_t misses = 0;  ///< lookups with no entry for the class
  std::uint64_t stores = 0;  ///< store() calls that inserted or improved
};

/// What a hit returns: a mapping verified to realize the queried function.
struct cached_solution {
  lattice::lattice_mapping mapping;
  int lower_bound = 0;
};

class solution_cache {
 public:
  /// Input count up to which keys are exact NP-class minima (see
  /// np_canonicalize). Keys depend on it, so every process sharing a
  /// persistent file must use the same value: it is fixed here.
  static constexpr int kExactCanonMaxVars = 6;

  /// Canonicalize `f` under this store's settings. A caller that will both
  /// look up and (on a miss) store the same function should canonicalize
  /// once and use the two-argument overloads below — canonicalization is the
  /// expensive half of a cache operation.
  [[nodiscard]] bf::np_canonical canonicalize(const bf::truth_table& f) const;

  /// Look up a solution for `f`. On a hit the stored canonical mapping is
  /// inverse-transformed and re-verified against the BFS oracle; throws
  /// janus::check_error if that verification fails.
  [[nodiscard]] std::optional<cached_solution> lookup(const bf::truth_table& f)
      JANUS_EXCLUDES(mutex_);
  /// Same, with a canonical form precomputed by canonicalize(f).
  [[nodiscard]] std::optional<cached_solution> lookup(
      const bf::np_canonical& canon, const bf::truth_table& f)
      JANUS_EXCLUDES(mutex_);

  /// Record a completed solution for `f`. Keeps the smaller mapping when the
  /// class is already present.
  void store(const bf::truth_table& f, const lattice::lattice_mapping& mapping,
             int lower_bound) JANUS_EXCLUDES(mutex_);
  /// Same, with a canonical form precomputed by canonicalize(f).
  void store(const bf::np_canonical& canon, const bf::truth_table& f,
             const lattice::lattice_mapping& mapping, int lower_bound)
      JANUS_EXCLUDES(mutex_);

  [[nodiscard]] cache_stats stats() const JANUS_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const JANUS_EXCLUDES(mutex_);

  // ---- persistent layer ----------------------------------------------------

  /// Merge entries from a stream; throws janus::check_error (with a line
  /// number) on malformed or corrupt content — a bad cache file must never
  /// silently feed wrong lattices downstream.
  void load(std::istream& in) JANUS_EXCLUDES(mutex_);
  /// Serializes a point-in-time snapshot: entries are copied under the lock,
  /// stream I/O happens outside it (a slow disk must not stall lookups).
  void save(std::ostream& out) const JANUS_EXCLUDES(mutex_);

  /// Merge from `path`; returns false when the file does not exist.
  bool load_file(const std::string& path);
  void save_file(const std::string& path) const;

 private:
  struct entry {
    lattice::lattice_mapping mapping;  ///< realizes the canonical table
    int lower_bound = 0;
  };

  /// Guards entries_ and stats_. Held only around map/counter operations —
  /// canonicalization, the inverse transform and the BFS-oracle re-check all
  /// run outside it. Sits at the solution_cache (outermost) level of the
  /// global lock order (util/lock_order.hpp).
  mutable util::mutex mutex_
      JANUS_ACQUIRED_BEFORE(util::lock_order::session_pool);
  std::unordered_map<std::string, entry> entries_ JANUS_GUARDED_BY(mutex_);
  cache_stats stats_ JANUS_GUARDED_BY(mutex_);
};

}  // namespace janus::cache
