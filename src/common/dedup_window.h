// Per-publisher sequence window: the Dynamoth client library's duplicate
// filter (paper Section IV-A3, exactly-once delivery by globally unique
// message id).
//
// Duplicates only arise during reconfiguration — double subscriptions while
// a subscription moves, and dispatcher forwarding, which is bounded by the
// forward timeout and aligned with the clients' plan-entry timeout. So the
// filter remembers every id that arrived within a sim-time *horizon* (the
// entry timeout) instead of a fixed count of recent ids:
//
//  - Ids are (origin, seq). Each origin's seqs are grouped into 64-seq words
//    (one bit per seq). One open-addressing table keyed by (origin, word)
//    holds every remembered word in a 24-byte slot, so any arrival — in
//    order, reordered or a late duplicate — touches one probe chain. A word
//    that is absent is fresh, whether it is newer than the publisher's
//    newest word or older than anything remembered.
//  - Every word is stamped with its latest arrival, in milliseconds rounded
//    up. sweep() touches no slot: it only records a cutoff (now minus the
//    horizon), and a slot stamped before the cutoff counts as forgotten.
//    insert() revives such a slot in place when its key matches and
//    otherwise reuses the first one on its probe path. When occupied slots
//    would pass 3/4 of the table, forgotten slots are purged in place; the
//    table doubles only if the remembered words still fill more than 5/8 of
//    it. So memory follows the traffic received within the horizon and
//    steady-state delivery never allocates.
//
// Guarantees: a fresh id is never rejected; a duplicate arriving within the
// horizon of its first copy is always rejected; an arrival older than
// anything remembered is accepted. Once nothing is remembered, sweep()
// releases all storage. Origin ~0 is reserved (free-slot marker), seqs must
// stay below 2^38 (word indices are 32-bit) and sim time below 2^32 ms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/types.h"

namespace dynamoth {

class DedupWindow {
 public:
  explicit DedupWindow(SimTime horizon) : horizon_(horizon) {}

  /// Records the arrival of `id` at `now`. Returns true when the id is new
  /// (never seen, or its word has aged out), false for a duplicate.
  bool insert(const MessageId& id, SimTime now) {
    DYN_CHECK(id.origin != kEmpty && id.seq < kMaxSeq && now >= 0 && now < kMaxTime);
    const auto word = static_cast<std::uint32_t>(id.seq >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (id.seq & 63);
    const std::uint32_t stamp = to_stamp(now);
    if (now > newest_) newest_ = now;
    if (!slots_.empty()) {
      const std::size_t mask = slots_.size() - 1;
      const std::uint32_t cutoff = cutoff_;  // a local: slot stores may alias the member
      Slot* forgotten = nullptr;             // first stale slot on the probe path
      std::size_t i = hash_combine(id.origin, word) & mask;
      for (; slots_[i].origin != kEmpty; i = (i + 1) & mask) {
        Slot& s = slots_[i];
        const bool live = s.stamp >= cutoff;
        if (s.origin == id.origin && s.word == word) {
          const bool fresh = !live || (s.bits & bit) == 0;
          s.bits = live ? s.bits | bit : bit;
          s.stamp = stamp;
          return fresh;
        }
        if (!live && forgotten == nullptr) forgotten = &s;
      }
      if (forgotten != nullptr) {
        *forgotten = Slot{id.origin, bit, word, stamp};
        return true;
      }
      if (4 * (used_ + 1) <= 3 * slots_.size()) {
        slots_[i] = Slot{id.origin, bit, word, stamp};
        ++used_;
        return true;
      }
    }
    add(Slot{id.origin, bit, word, stamp});
    return true;
  }

  /// Forgets (lazily) words whose latest arrival is more than the horizon
  /// before `now`. Releases all storage once nothing is remembered.
  void sweep(SimTime now);

  /// Forgets everything and releases storage.
  void clear();

  /// Publishers with at least one remembered word (diagnostic, O(n log n)).
  [[nodiscard]] std::size_t publishers() const;
  /// Remembered words (diagnostic, O(n)).
  [[nodiscard]] std::size_t words() const;
  /// Bytes of table storage held (the per-client dedup footprint).
  [[nodiscard]] std::size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};  // free-slot origin
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << 38;
  static constexpr SimTime kMaxTime = SimTime{0xFFFF'FFFF} * kMillisecond;

  struct Slot {
    std::uint64_t origin = kEmpty;
    std::uint64_t bits = 0;   // seqs seen in `word`
    std::uint32_t word = 0;   // seq >> 6
    std::uint32_t stamp = 0;  // latest arrival into `word`, ms rounded up
  };
  static_assert(sizeof(Slot) == 24);

  /// Rounds up, so a word is remembered at least one horizon, never less.
  static std::uint32_t to_stamp(SimTime t) {
    const auto us = static_cast<std::uint64_t>(t);  // unsigned: a cheaper division
    return static_cast<std::uint32_t>((us + kMillisecond - 1) / kMillisecond);
  }
  static std::size_t home(const Slot& s) { return hash_combine(s.origin, s.word); }
  [[nodiscard]] bool live(const Slot& s) const {
    return s.origin != kEmpty && s.stamp >= cutoff_;
  }

  /// Stores a slot whose key is absent when the fast path found no room:
  /// allocates the first table, or purges stale slots and grows if needed.
  void add(const Slot& slot);
  /// Inserts a slot known to be absent into a table with a free slot.
  void place(const Slot& slot);
  /// Erases every stale slot in place; returns the number erased.
  std::size_t purge();

  SimTime horizon_;
  std::vector<Slot> slots_;    // power-of-two size, occupied <= 3/4
  std::size_t used_ = 0;       // occupied slots, stale ones included
  std::uint32_t cutoff_ = 0;   // stamps below this are forgotten
  SimTime newest_ = 0;         // latest arrival since the last clear()
};

}  // namespace dynamoth
