#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::sim {

namespace {
// Sampled counter track for the event engine: one sample per 2^16 executed
// events keeps the flight recorder's share of the hot loop negligible even
// in DYNAMOTH_TRACING builds.
[[maybe_unused]] constexpr std::uint64_t kEngineSampleMask = (1u << 16) - 1;
}  // namespace

// A fresh 256 KiB over-aligned block costs a page fault per 4 KiB on first
// touch, and a block freed back to malloc is often not reusable for the next
// aligned request (alignment padding fragments it), so every world set-up
// would fault its first block in again. Recycling keeps set-up cost flat.
std::unique_ptr<Simulator::Slot[]>& Simulator::spare_block() {
  thread_local std::unique_ptr<Slot[]> spare;
  return spare;
}

Simulator::~Simulator() {
  std::unique_ptr<Slot[]>& spare = spare_block();
  if (spare || slab_.empty()) return;
  for (std::uint32_t i = 0; i < kSlabBlockSize; ++i) slab_.front()[i] = Slot{};
  spare = std::move(slab_.front());
}

void Simulator::grow_slab() {
  DYN_CHECK(slot_count_ <= kNoEventSlot - kSlabBlockSize);
  std::unique_ptr<Slot[]>& spare = spare_block();
  slab_.push_back(spare ? std::move(spare) : std::make_unique<Slot[]>(kSlabBlockSize));
}

void Simulator::heap_pop_root() {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  const std::size_t end_all = heap_.size();
  if (end_all == kHeapBase) return;
  // Bottom-up (Wegener) deletion: percolate the hole straight down along
  // min-children without comparing against `last` — the back element nearly
  // always belongs near the leaves, so the per-level "done yet?" test of the
  // classic sift-down rarely pays for itself — then bubble `last` up from
  // the leaf hole the short remaining distance. Full sibling groups use a
  // branchless tournament (two independent compares feeding a third).
  std::size_t i = kHeapBase;
  std::size_t first = heap_child(i);
  while (first + 4 <= end_all) {
    const HeapItem* c = &heap_[first];
    const std::size_t m1 = first + (c[0].later_than(c[1]) ? 1 : 0);
    const std::size_t m2 = first + 2 + (c[2].later_than(c[3]) ? 1 : 0);
    const std::size_t smallest = heap_[m1].later_than(heap_[m2]) ? m2 : m1;
    heap_[i] = heap_[smallest];
    i = smallest;
    first = heap_child(i);
  }
  if (first < end_all) {
    std::size_t smallest = first;
    for (std::size_t c = first + 1; c < end_all; ++c) {
      if (heap_[smallest].later_than(heap_[c])) smallest = c;
    }
    heap_[i] = heap_[smallest];
    i = smallest;
  }
  while (i > kHeapBase) {
    const std::size_t parent = heap_parent(i);
    if (!heap_[parent].later_than(last)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = last;
}

void Simulator::drop_dead_roots() {
  while (!heap_empty() && slot(heap_root().slot).generation != heap_root().generation) {
    heap_pop_root();
  }
}

void Simulator::fire_root() {
  const HeapItem item = heap_root();
  heap_pop_root();
  now_ = item.time;
  ++executed_;
  --live_;
  if constexpr (obs::kTraceHotCompiled) {
    if ((executed_ & kEngineSampleMask) == 0) {
      DYN_TRACE_HOT(counter(now_, kInvalidNode, "sim", "pending_events",
                            static_cast<double>(live_)));
    }
  }
  // Bump the generation before invoking: a cancel of the now-firing event
  // must report false. The slot is not on the free list yet, so callbacks
  // scheduling new events cannot clobber it, and slab addresses are stable,
  // so the callback runs in place without being moved out first.
  Slot& s = slot(item.slot);
  ++s.generation;
  s.cb();
  s.cb = nullptr;
  s.next_free = free_head_;
  free_head_ = item.slot;
}

bool Simulator::step() {
  drop_dead_roots();
  if (heap_empty()) return false;
  fire_root();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !heap_empty()) {
    const HeapItem item = heap_root();
    Slot& s = slot(item.slot);
    if (s.generation != item.generation) {  // cancelled: discard lazily
      heap_pop_root();
      continue;
    }
    heap_pop_root();
    now_ = item.time;
    ++executed_;
    --live_;
    if constexpr (obs::kTraceHotCompiled) {
      if ((executed_ & kEngineSampleMask) == 0) {
        DYN_TRACE_HOT(counter(now_, kInvalidNode, "sim", "pending_events",
                              static_cast<double>(live_)));
      }
    }
    ++s.generation;  // a cancel of the now-firing event must report false
    s.cb();
    s.cb = nullptr;
    s.next_free = free_head_;
    free_head_ = item.slot;
  }
}

void Simulator::run_until(SimTime t) {
  DYN_CHECK(t >= now_);
  stopped_ = false;
  while (!stopped_) {
    drop_dead_roots();
    if (heap_empty() || heap_root().time > t) break;
    fire_root();
  }
  if (!stopped_ && now_ < t) now_ = t;
}

void PeriodicTask::start() { start_after(period_); }

void PeriodicTask::start_after(SimTime initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay);
}

void PeriodicTask::stop() {
  if (running_) sim_.cancel(pending_);
  running_ = false;
}

void PeriodicTask::arm(SimTime delay) {
  pending_ = sim_.schedule_after(delay, [this] {
    // Re-arm before the tick so the tick may call stop() to end the cycle.
    arm(period_);
    fn_();
  });
}

}  // namespace dynamoth::sim
