// Support for per-thread singletons (block-parallel simulation).
//
// The process-wide services the hot path leans on — EnvelopePool,
// ChannelTable, TraceRecorder — are deliberately non-atomic and
// unsynchronized. Sharded mode (DESIGN.md section 15) runs K simulator
// threads, so each of those services is *per-thread*: every shard thread
// holds its own instance and never shares it.
//
// Instances are never deleted: envelopes captured in static-duration
// containers may release during teardown, after function-local statics would
// have been destroyed. Instead, an exiting thread parks its instance in a
// process-lifetime registry, and the next new thread takes a parked one back,
// reset, before it makes a new one. Repeated sharded runs therefore reuse one
// instance per shard thread instead of leaking one per run, and the registry
// keeps every instance reachable for LeakSanitizer.
#pragma once

#include <iterator>
#include <mutex>
#include <vector>

namespace dynamoth::detail {

/// The calling thread's claim on one instance of T. Hold it in a
/// function-local `static thread_local const`; its destructor parks the
/// instance when the thread exits.
template <class T>
class ThreadLease {
 public:
  /// Takes the most recently parked instance that `recycle(T&)` accepts, or
  /// else `make()`s a new one. `recycle` runs under the registry lock; it
  /// either resets the instance to what a fresh one shows and returns true,
  /// or returns false to leave it parked.
  template <class Make, class Recycle>
  ThreadLease(Make make, Recycle recycle) : instance_(take(recycle)) {
    if (instance_ == nullptr) instance_ = make();
  }
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;
  ~ThreadLease() {
    Parked& p = parked();
    const std::lock_guard<std::mutex> lock(p.mu);
    p.instances.push_back(instance_);
  }

  [[nodiscard]] T& get() const { return *instance_; }

 private:
  struct Parked {
    std::mutex mu;
    std::vector<T*> instances;
  };

  static Parked& parked() {
    static auto* p = new Parked();  // leaked: thread exits may outlive statics
    return *p;
  }

  template <class Recycle>
  static T* take(Recycle& recycle) {
    Parked& p = parked();
    const std::lock_guard<std::mutex> lock(p.mu);
    for (auto it = p.instances.rbegin(); it != p.instances.rend(); ++it) {
      if (!recycle(**it)) continue;
      T* t = *it;
      p.instances.erase(std::next(it).base());
      return t;
    }
    return nullptr;
  }

  T* instance_;
};

}  // namespace dynamoth::detail
