#include "common/dedup_window.h"

#include <algorithm>

namespace dynamoth {

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

void DedupWindow::add(const Slot& slot) {
  if (slots_.empty()) {
    slots_.resize(kMinSlots);
  } else {
    used_ -= purge();
    if (8 * used_ > 5 * slots_.size()) {
      std::vector<Slot> live_slots;
      live_slots.swap(slots_);
      slots_.resize(2 * live_slots.size());
      for (const Slot& s : live_slots) {
        if (s.origin != kEmpty) place(s);
      }
    }
  }
  place(slot);
  ++used_;
}

void DedupWindow::place(const Slot& slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(slot) & mask;
  while (slots_[i].origin != kEmpty) i = (i + 1) & mask;
  slots_[i] = slot;
}

/// Backward-shift deletion (no tombstones, so probe chains stay short). The
/// scan starts just past a free slot, so a cluster never wraps past the start
/// and each slot is examined exactly once: a shift only moves not-yet-visited
/// slots back into the hole being examined.
std::size_t DedupWindow::purge() {
  const std::size_t mask = slots_.size() - 1;
  std::size_t start = 0;
  while (slots_[start].origin != kEmpty) ++start;  // occupied <= 3/4: one exists
  std::size_t erased = 0;
  for (std::size_t n = 1; n <= slots_.size();) {
    const std::size_t i = (start + n) & mask;
    if (slots_[i].origin == kEmpty || live(slots_[i])) {
      ++n;
      continue;
    }
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; slots_[j].origin != kEmpty; j = (j + 1) & mask) {
      // slots_[j] may fill the hole unless its home lies cyclically in (hole, j].
      const std::size_t dist_home = (j - (home(slots_[j]) & mask)) & mask;
      if (dist_home >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].origin = kEmpty;
    ++erased;
  }
  return erased;
}

void DedupWindow::sweep(SimTime now) {
  const SimTime cutoff = now - horizon_;
  if (newest_ < cutoff) {
    clear();
  } else {
    cutoff_ = cutoff > 0 ? to_stamp(cutoff) : 0;
  }
}

void DedupWindow::clear() {
  std::vector<Slot>().swap(slots_);
  used_ = 0;
  cutoff_ = 0;
  newest_ = 0;
}

std::size_t DedupWindow::publishers() const {
  std::vector<std::uint64_t> origins;
  for (const Slot& s : slots_) {
    if (live(s)) origins.push_back(s.origin);
  }
  std::sort(origins.begin(), origins.end());
  return static_cast<std::size_t>(std::unique(origins.begin(), origins.end()) - origins.begin());
}

std::size_t DedupWindow::words() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(), [&](const Slot& s) { return live(s); }));
}

}  // namespace dynamoth
