#include "common/dedup_window.h"

namespace dynamoth {

namespace {
constexpr std::size_t kMinPublisherSlots = 8;
constexpr std::size_t kMinWordSlots = 16;
}  // namespace

/// Inserts an entry known to be absent.
template <class Entry>
void DedupWindow::place(std::vector<Entry>& table, const Entry& entry) {
  const std::size_t mask = table.size() - 1;
  std::size_t i = home(entry) & mask;
  while (table[i].origin != kEmpty) i = (i + 1) & mask;
  table[i] = entry;
}

/// Makes room for one more entry, keeping the load factor at or below 3/4.
template <class Entry>
void DedupWindow::reserve_one(std::vector<Entry>& table, std::size_t count,
                              std::size_t min_slots) {
  if (4 * (count + 1) <= 3 * table.size()) return;
  std::vector<Entry> grown(table.empty() ? min_slots : 2 * table.size());
  for (const Entry& e : table) {
    if (e.origin != kEmpty) place(grown, e);
  }
  table.swap(grown);
}

/// Erases every entry `stale` selects, with backward-shift deletion (no
/// tombstones, so probe chains stay short). The scan starts just past a free
/// slot, so a cluster never wraps past the start and each entry is examined
/// exactly once: a shift only moves not-yet-visited entries back into the
/// hole being examined. Returns the number erased.
template <class Entry, class Stale>
std::size_t DedupWindow::erase_if(std::vector<Entry>& table, Stale stale) {
  if (table.empty()) return 0;
  const std::size_t mask = table.size() - 1;
  std::size_t start = 0;
  while (table[start].origin != kEmpty) ++start;  // load <= 3/4: one exists
  std::size_t erased = 0;
  for (std::size_t n = 1; n <= table.size();) {
    const std::size_t i = (start + n) & mask;
    if (table[i].origin == kEmpty || !stale(table[i])) {
      ++n;
      continue;
    }
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; table[j].origin != kEmpty; j = (j + 1) & mask) {
      // table[j] may fill the hole unless its home lies cyclically in (hole, j].
      const std::size_t dist_home = (j - (home(table[j]) & mask)) & mask;
      if (dist_home >= ((j - hole) & mask)) {
        table[hole] = table[j];
        hole = j;
      }
    }
    table[hole].origin = kEmpty;
    ++erased;
  }
  return erased;
}

void DedupWindow::add_publisher(const Publisher& p) {
  reserve_one(publishers_, publisher_count_, kMinPublisherSlots);
  place(publishers_, p);
  ++publisher_count_;
}

void DedupWindow::spill(Publisher& p) {
  reserve_one(spilled_, spilled_count_, kMinWordSlots);
  place(spilled_, Word{p.origin, p.bits, p.stamp, p.word});
  ++spilled_count_;
  ++p.spilled;
}

bool DedupWindow::insert_spilled(Publisher& p, std::uint32_t word, std::uint64_t bit,
                                 SimTime now) {
  if (!spilled_.empty()) {
    const std::size_t mask = spilled_.size() - 1;
    for (std::size_t i = hash_combine(p.origin, word) & mask; spilled_[i].origin != kEmpty;
         i = (i + 1) & mask) {
      Word& w = spilled_[i];
      if (w.origin != p.origin || w.word != word) continue;
      const bool fresh = (w.bits & bit) == 0;
      w.bits |= bit;
      w.stamp = now;
      return fresh;
    }
  }
  // Older than anything remembered for this word: accept and remember.
  reserve_one(spilled_, spilled_count_, kMinWordSlots);
  place(spilled_, Word{p.origin, bit, now, word});
  ++spilled_count_;
  ++p.spilled;
  return true;
}

void DedupWindow::sweep(SimTime now) {
  const SimTime cutoff = now - horizon_;
  spilled_count_ -= erase_if(spilled_, [&](const Word& w) {
    if (w.stamp >= cutoff) return false;
    --find_publisher(w.origin)->spilled;
    return true;
  });
  publisher_count_ -= erase_if(publishers_, [&](Publisher& p) {
    if (p.stamp < cutoff) p.bits = 0;
    return p.bits == 0 && p.spilled == 0;
  });
  if (publisher_count_ == 0) clear();
}

void DedupWindow::clear() {
  std::vector<Publisher>().swap(publishers_);
  std::vector<Word>().swap(spilled_);
  publisher_count_ = 0;
  spilled_count_ = 0;
}

std::size_t DedupWindow::words() const {
  std::size_t inline_words = 0;
  for (const Publisher& p : publishers_) {
    if (p.origin != kEmpty && p.bits != 0) ++inline_words;
  }
  return inline_words + spilled_count_;
}

}  // namespace dynamoth
