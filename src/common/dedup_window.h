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
//    (one bit per seq). An open-addressing table keyed by origin holds each
//    publisher's newest word inline, so an in-order delivery touches one
//    slot. Older words spill to a second open-addressing table keyed by
//    (origin, word); its slots are reused as words expire, so steady-state
//    delivery never allocates.
//  - Every word is stamped with the time of its latest arrival. sweep()
//    drops words older than the horizon, then publishers with no words left;
//    memory follows the traffic received within the horizon.
//
// Guarantees: a fresh id is never rejected; a duplicate arriving within the
// horizon of its first copy is always rejected; an arrival older than
// anything remembered is accepted. Origin ~0 is reserved (free-slot marker)
// and seqs must stay below 2^38 (word indices are 32-bit).
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
    DYN_CHECK(id.origin != kEmpty && id.seq < kMaxSeq);
    const auto word = static_cast<std::uint32_t>(id.seq >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (id.seq & 63);
    Publisher* p = find_publisher(id.origin);
    if (p == nullptr) {
      add_publisher(Publisher{id.origin, bit, now, word, 0});
      return true;
    }
    if (word == p->word) {
      const bool fresh = (p->bits & bit) == 0;
      p->bits |= bit;
      p->stamp = now;
      return fresh;
    }
    if (word > p->word) {
      if (p->bits != 0) spill(*p);
      p->word = word;
      p->bits = bit;
      p->stamp = now;
      return true;
    }
    return insert_spilled(*p, word, bit, now);
  }

  /// Forgets words whose latest arrival is more than the horizon before
  /// `now`, then publishers with no words left. Releases all storage once
  /// nothing is remembered.
  void sweep(SimTime now);

  /// Forgets everything and releases storage.
  void clear();

  /// Publishers with at least one remembered word.
  [[nodiscard]] std::size_t publishers() const { return publisher_count_; }
  /// Remembered words (inline and spilled).
  [[nodiscard]] std::size_t words() const;
  /// Bytes of table storage held (the per-client dedup footprint).
  [[nodiscard]] std::size_t bytes() const {
    return publishers_.capacity() * sizeof(Publisher) + spilled_.capacity() * sizeof(Word);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};  // free-slot origin
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << 38;

  // 32-byte slots, aligned so that each sits in one cache line.
  struct alignas(32) Publisher {
    std::uint64_t origin = kEmpty;
    std::uint64_t bits = 0;     // seqs seen in `word`; 0 once it expired
    SimTime stamp = 0;          // latest arrival into `word`
    std::uint32_t word = 0;     // newest word index (seq >> 6)
    std::uint32_t spilled = 0;  // this publisher's words in spilled_
  };

  struct alignas(32) Word {
    std::uint64_t origin = kEmpty;
    std::uint64_t bits = 0;
    SimTime stamp = 0;
    std::uint32_t word = 0;
  };

  static std::size_t home(const Publisher& p) { return mix64(p.origin); }
  static std::size_t home(const Word& w) { return hash_combine(w.origin, w.word); }

  Publisher* find_publisher(std::uint64_t origin) {
    if (publishers_.empty()) return nullptr;
    const std::size_t mask = publishers_.size() - 1;
    for (std::size_t i = mix64(origin) & mask;; i = (i + 1) & mask) {
      Publisher& p = publishers_[i];
      if (p.origin == origin) return &p;
      if (p.origin == kEmpty) return nullptr;
    }
  }

  // Linear-probing helpers shared by both tables (defined in the .cc).
  template <class Entry>
  static void place(std::vector<Entry>& table, const Entry& entry);
  template <class Entry>
  static void reserve_one(std::vector<Entry>& table, std::size_t count, std::size_t min_slots);
  template <class Entry, class Stale>
  static std::size_t erase_if(std::vector<Entry>& table, Stale stale);

  void add_publisher(const Publisher& p);
  /// Moves the publisher's inline word into spilled_.
  void spill(Publisher& p);
  bool insert_spilled(Publisher& p, std::uint32_t word, std::uint64_t bit, SimTime now);

  SimTime horizon_;
  std::vector<Publisher> publishers_;  // power-of-two size, load <= 3/4
  std::vector<Word> spilled_;          // power-of-two size, load <= 3/4
  std::size_t publisher_count_ = 0;
  std::size_t spilled_count_ = 0;
};

}  // namespace dynamoth
