#include "lm/lattice_info.hpp"

namespace janus::lm {

path_family::path_family(const lattice::dims& d, lattice::connectivity conn,
                         std::size_t max_paths)
    : d_(d), conn_(conn), lazy_(std::make_shared<lazy_cells>()) {
  lattice::enumerate_paths(d, conn, [&](const lattice::path& p) {
    ++count_;
    total_cells_ += p.cells.size();
    if (length_counts_.size() <= p.cells.size()) {
      length_counts_.resize(p.cells.size() + 1, 0);
    }
    ++length_counts_[p.cells.size()];
    return count_ <= max_paths;
  });
}

const lattice::path_list& path_family::cells() const {
  JANUS_CHECK_MSG(lazy_ != nullptr, "no paths counted for this view");
  std::call_once(lazy_->once, [this] {
    lazy_->paths = lattice::list_paths(d_, conn_);
    JANUS_CHECK(lazy_->paths.size() == count_);
    lazy_->done.store(true);
  });
  return lazy_->paths;
}

namespace {

void build_info(lattice_info& info, const lattice::dims& d,
                std::size_t max_paths) {
  info.d = d;
  // Count both views even when the first is already over the cap.
  info.paths_4tb = path_family(d, lattice::connectivity::four_top_bottom,
                               max_paths);
  info.paths_8lr = path_family(d, lattice::connectivity::eight_left_right,
                               max_paths);
  if (info.paths_4tb.size() > max_paths || info.paths_8lr.size() > max_paths) {
    info.oversized = true;
    info.paths_4tb = path_family();
    info.paths_8lr = path_family();
  }
}

}  // namespace

const lattice_info& lattice_info_cache::get(const lattice::dims& d) {
  const auto key = std::make_pair(d.rows, d.cols);
  std::shared_ptr<slot> entry;
  {
    util::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      entry = it->second;
    }
  }
  if (entry == nullptr) {
    // Allocate outside the map lock — every concurrent probe of every
    // dimension serializes on mutex_, so the critical section stays at
    // two map operations. The first inserter wins; a losing allocation
    // is simply dropped.
    auto fresh = std::make_shared<slot>();
    util::lock_guard lock(mutex_);
    entry = entries_.try_emplace(key, std::move(fresh)).first->second;
  }
  // Count outside the map lock so distinct dimensions build in parallel.
  std::call_once(entry->once, [&] {
    build_info(entry->info, d, max_paths_);
    entry->built.store(true);
  });
  return entry->info;
}

std::uint64_t lattice_info_cache::materialized_cells() const {
  util::lock_guard lock(mutex_);
  std::uint64_t cells = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry->built.load()) {
      continue;
    }
    for (const path_family* view :
         {&entry->info.paths_4tb, &entry->info.paths_8lr}) {
      if (view->materialized()) {
        cells += view->total_cells();
      }
    }
  }
  return cells;
}

}  // namespace janus::lm
