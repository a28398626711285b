#include "obs/trace.h"

#include "common/check.h"
#include "common/thread_singleton.h"

namespace dynamoth::obs {

TraceRecorder& TraceRecorder::instance() {
  // Per simulator thread, like EnvelopePool and ChannelTable: hot trace
  // points must stay unsynchronized, so each shard thread records into its
  // own ring (DESIGN.md section 15). A recorder handed on from an exited
  // thread is reset to a fresh one: disabled, empty, default capacity, no
  // strings or tracks, ring memory released.
  static thread_local const detail::ThreadLease<TraceRecorder> lease(
      [] { return new TraceRecorder(); },
      [](TraceRecorder& r) {
        r = TraceRecorder();
        return true;
      });
  return lease.get();
}

void TraceRecorder::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_ && ring_.capacity() < capacity_) ring_.reserve(capacity_);
}

void TraceRecorder::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  ring_.clear();
  ring_.shrink_to_fit();
  if (enabled_ && capacity_ > 0) ring_.reserve(capacity_);
  next_ = 0;
  recorded_ = 0;
}

TraceStrId TraceRecorder::intern(std::string_view s) {
  if (s.empty()) return kEmptyTraceStr;
  const auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  // The id space is 16-bit by design (trace events are fixed-size POD);
  // the schema of categories/names/arg-keys is dozens of strings, not
  // thousands — refuse silently-degraded traces if a caller breaks that.
  DYN_CHECK(strings_.size() < 0xFFFF);
  const auto id = static_cast<TraceStrId>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out.assign(ring_.begin(), ring_.end());
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void TraceRecorder::clear() {
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  tracks_.clear();
}

}  // namespace dynamoth::obs
