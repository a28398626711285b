// Support for per-thread singletons (block-parallel simulation).
//
// The process-wide services the hot path leans on — EnvelopePool,
// ChannelTable, TraceRecorder, the Rng draw counter — are deliberately
// non-atomic and unsynchronized. Sharded mode (DESIGN.md section 15) runs K
// simulator threads, so each of those services becomes *per-thread*: every
// shard thread lazily constructs its own instance and never shares it.
//
// Instances are leaked on purpose, for two reasons the old function-local
// statics already had one of: (a) envelopes captured in static-duration
// containers may release during teardown, after locals would be destroyed;
// (b) a `thread_local` pointer stops being a LeakSanitizer root once its
// thread exits, so every instance is also parked in a process-lifetime
// registry that LSan can always reach. ChannelTable goes one step further:
// an exited thread's table is cleared and handed to the next new thread, so
// repeated sharded runs stop leaking one table per shard thread.
#pragma once

namespace dynamoth::detail {

/// Parks `p` in a leaked process-wide registry so LeakSanitizer keeps a
/// reachable reference after the creating thread exits. Thread-safe.
void retain_for_process_lifetime(void* p);

}  // namespace dynamoth::detail
