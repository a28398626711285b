#include "pubsub/envelope.h"

#include "common/thread_singleton.h"

namespace dynamoth::ps {

EnvelopePool& EnvelopePool::lease_for_this_thread() {
  static thread_local const ::dynamoth::detail::ThreadLease<EnvelopePool> lease(
      [] { return new EnvelopePool(); },
      [](EnvelopePool& p) {
        if (p.live_ != 0) return false;
        p.reused_ = 0;
        return true;
      });
  return lease.get();
}

detail::EnvelopeSlot* EnvelopePool::grow() {
  auto block = std::make_unique<detail::EnvelopeSlot[]>(kBlockSize);
  detail::EnvelopeSlot* base = block.get();
  blocks_.push_back(std::move(block));
  slot_count_ += kBlockSize;
  // Thread all but the first slot onto the free list (in address order, so a
  // fresh pool hands out contiguous slots); the first serves this acquire.
  for (std::size_t i = kBlockSize - 1; i >= 1; --i) {
    base[i].next_free = free_head_;
    free_head_ = &base[i];
  }
  return base;
}

}  // namespace dynamoth::ps
