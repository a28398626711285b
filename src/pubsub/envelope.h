// Message envelope flowing through the pub/sub substrate.
//
// The substrate itself (a Redis stand-in) treats every publication as opaque
// payload on a channel. Dynamoth's reconfiguration traffic (SWITCH
// notifications, wrong-server replies, drain notices) rides on top as
// ordinary publications, so it stays ordered with the data it redirects.
// Load reports and plans do not: they travel on direct sends (core/control.h).
//
// Memory architecture (see DESIGN.md section 10): envelopes live in a
// per-simulator-thread slab pool (EnvelopePool) and are handed around as
// intrusive, *non-atomic* refcounted EnvelopeRef values. Each simulator is
// single-threaded, so the atomic control-block traffic of the previous
// std::shared_ptr<const Envelope> representation was pure waste — and its
// make_shared allocation put one heap round-trip on every publication. Slab
// blocks are never freed or moved, so slot addresses stay stable while any
// reference is outstanding, and a released envelope's channel string keeps
// its capacity for the next occupant: the steady-state publish path touches
// the allocator zero times (tests/perf/alloc_guard_test.cc asserts this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/channel_table.h"
#include "common/owner.h"
#include "common/thread_singleton.h"
#include "common/types.h"

namespace dynamoth::ps {

enum class MsgKind {
  kData,         // application publication
  kSwitch,       // dispatcher -> subscribers: channel moved, re-subscribe
  kWrongServer,  // dispatcher -> publisher: wrong server, here is the entry
  kDrainNotice,  // old-owner dispatcher -> new-owner dispatcher: no subs left
  kControl,      // other control traffic
};

/// Base class for typed control payloads (defined by the core library; the
/// substrate only needs the wire size).
struct ControlBody {
  virtual ~ControlBody() = default;
  [[nodiscard]] virtual std::size_t wire_size() const { return 32; }
};

class EnvelopePool;

struct Envelope {
  MessageId id;
  MsgKind kind = MsgKind::kData;
  Channel channel;
  std::size_t payload_bytes = 0;    // application payload size (kData)
  SimTime publish_time = 0;         // origin timestamp, for RTT measurement
  ClientId publisher = 0;
  /// Per-(publisher, channel) sequence number, 1-based; 0 when the producer
  /// does not sequence. The reliability layer uses gaps in this stream to
  /// detect losses and request replay.
  std::uint64_t channel_seq = 0;
  std::uint64_t entry_version = 0;  // publisher's plan-entry version for channel
  bool forwarded = false;           // set once a dispatcher has forwarded it
  NodeId via_server = kInvalidNode; // dispatcher that forwarded it (echo guard)
  std::shared_ptr<const ControlBody> body;  // control payload, if any

  /// Interned id of `channel`, computed on first use and cached. An envelope
  /// fans out to every subscriber and every replica server, so the routing
  /// and metrics layers key their tables by this id and intern at most once
  /// per message instead of hashing the name at each hop.
  [[nodiscard]] ChannelId channel_id() const {
    if (channel_id_ == kInvalidChannelId) channel_id_ = intern_channel(channel);
    return channel_id_;
  }

 private:
  friend class EnvelopePool;

  /// Returns the envelope to its default-constructed state when its pool
  /// slot is released. channel.clear() keeps the string's capacity, so the
  /// slot's next occupant assigns its name without allocating.
  void reset_for_reuse() {
    id = MessageId{};
    kind = MsgKind::kData;
    channel.clear();
    payload_bytes = 0;
    publish_time = 0;
    publisher = 0;
    channel_seq = 0;
    entry_version = 0;
    forwarded = false;
    via_server = kInvalidNode;
    body.reset();
    channel_id_ = kInvalidChannelId;
  }

  mutable ChannelId channel_id_ = kInvalidChannelId;
};

namespace detail {

/// One pool slot: the envelope plus its intrusive refcount and free-list
/// link. The count is deliberately non-atomic — every producer and consumer
/// runs on one simulator thread (the slot's pool is thread-local, and debug
/// builds assert the owner stamp on every refcount operation).
struct EnvelopeSlot {
  Envelope env;
  std::uint32_t refs = 0;
  EnvelopeSlot* next_free = nullptr;
  [[no_unique_address]] OwnerStamp owner;
};

}  // namespace detail

template <class T>
class BasicEnvelopeRef;

/// Slab pool of envelope slots: fixed-size blocks with stable addresses,
/// chained through an intrusive free list (the same design as the
/// simulator's event slab). Per simulator thread, like ChannelTable, so
/// envelopes cross client/server/dispatcher boundaries freely within one
/// simulation but never cross shard threads (DESIGN.md section 15).
class EnvelopePool {
 public:
  /// The calling thread's pool. Intentionally leaked: envelopes captured in
  /// static-duration containers may release during teardown, after function-
  /// local statics would have been destroyed (see thread_singleton.h for the
  /// LeakSanitizer registry).
  static EnvelopePool& instance() {
    static thread_local EnvelopePool* pool = [] {
      auto* p = new EnvelopePool();
      ::dynamoth::detail::retain_for_process_lifetime(p);
      return p;
    }();
    return *pool;
  }

  EnvelopePool(const EnvelopePool&) = delete;
  EnvelopePool& operator=(const EnvelopePool&) = delete;

  /// Acquires a fresh envelope (refcount 1, fields default-initialized).
  /// Steady state (warm free list) touches no allocator.
  [[nodiscard]] BasicEnvelopeRef<Envelope> make();

  /// Acquires an envelope initialized as a field-for-field copy of `src`
  /// (the dispatcher's forward path and the client's republish path).
  [[nodiscard]] BasicEnvelopeRef<Envelope> clone(const Envelope& src);

  // ---- introspection (tests, DESIGN.md section 10 invariants) ----

  /// Envelopes currently referenced.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Total slots ever created (live + free-listed).
  [[nodiscard]] std::size_t capacity() const { return slot_count_; }
  /// Acquisitions served from the free list instead of fresh slab space.
  [[nodiscard]] std::uint64_t reused() const { return reused_; }

 private:
  template <class T>
  friend class BasicEnvelopeRef;

  static constexpr std::size_t kBlockSize = 1024;  // slots per slab block

  EnvelopePool() = default;

  detail::EnvelopeSlot* acquire() {
    detail::EnvelopeSlot* s = free_head_;
    if (s != nullptr) {
      free_head_ = s->next_free;
      ++reused_;
    } else {
      s = grow();
    }
    s->refs = 1;
    s->next_free = nullptr;
    s->owner.stamp();
    ++live_;
    return s;
  }

  void release(detail::EnvelopeSlot* s) {
    s->owner.check();
    s->env.reset_for_reuse();
    s->next_free = free_head_;
    free_head_ = s;
    --live_;
  }

  detail::EnvelopeSlot* grow();  // cold path: appends one slab block

  std::vector<std::unique_ptr<detail::EnvelopeSlot[]>> blocks_;
  detail::EnvelopeSlot* free_head_ = nullptr;
  std::size_t slot_count_ = 0;
  std::size_t live_ = 0;
  std::uint64_t reused_ = 0;
};

/// Intrusive refcounted handle to a pooled envelope. T is `Envelope` while
/// the producer is still filling in fields (MutEnvelopeRef) and
/// `const Envelope` once published (EnvelopeRef / EnvelopePtr) — mirroring
/// the old shared_ptr<Envelope> -> shared_ptr<const Envelope> conversion, so
/// receivers still cannot mutate a shared message. Copying bumps a plain
/// uint32; the last reference returns the slot to the pool.
template <class T>
class BasicEnvelopeRef {
 public:
  BasicEnvelopeRef() = default;
  BasicEnvelopeRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Copy operations are noexcept (a plain uint32 bump): delivery lambdas
  // that capture a `const EnvelopePtr&` parameter by copy hold a *const*
  // member, whose "move" is this copy constructor — were it potentially
  // throwing, SmallFunction would reject the closure for inline storage and
  // heap-allocate every fan-out callback.
  BasicEnvelopeRef(const BasicEnvelopeRef& other) noexcept : slot_(other.slot_) {
    if (slot_ != nullptr) {
      slot_->owner.check();
      ++slot_->refs;
    }
  }
  BasicEnvelopeRef(BasicEnvelopeRef&& other) noexcept : slot_(other.slot_) {
    other.slot_ = nullptr;
  }

  /// Mutable -> const conversion (and no other direction).
  template <class U, class = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  BasicEnvelopeRef(const BasicEnvelopeRef<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : slot_(other.slot_) {
    if (slot_ != nullptr) {
      slot_->owner.check();
      ++slot_->refs;
    }
  }
  template <class U, class = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  BasicEnvelopeRef(BasicEnvelopeRef<U>&& other) noexcept  // NOLINT(google-explicit-constructor)
      : slot_(other.slot_) {
    other.slot_ = nullptr;
  }

  BasicEnvelopeRef& operator=(const BasicEnvelopeRef& other) noexcept {
    BasicEnvelopeRef(other).swap(*this);
    return *this;
  }
  BasicEnvelopeRef& operator=(BasicEnvelopeRef&& other) noexcept {
    BasicEnvelopeRef(std::move(other)).swap(*this);
    return *this;
  }
  BasicEnvelopeRef& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~BasicEnvelopeRef() { reset(); }

  void reset() noexcept {
    if (slot_ != nullptr) {
      slot_->owner.check();
      if (--slot_->refs == 0) EnvelopePool::instance().release(slot_);
    }
    slot_ = nullptr;
  }

  void swap(BasicEnvelopeRef& other) noexcept { std::swap(slot_, other.slot_); }

  [[nodiscard]] T* get() const { return slot_ != nullptr ? &slot_->env : nullptr; }
  T& operator*() const { return slot_->env; }
  T* operator->() const { return &slot_->env; }
  explicit operator bool() const { return slot_ != nullptr; }

  /// Outstanding references to this envelope (0 for a null ref).
  [[nodiscard]] std::uint32_t ref_count() const { return slot_ != nullptr ? slot_->refs : 0; }

  friend bool operator==(const BasicEnvelopeRef& r, std::nullptr_t) { return r.slot_ == nullptr; }

  template <class A, class B>
  friend bool operator==(const BasicEnvelopeRef<A>& a, const BasicEnvelopeRef<B>& b);

 private:
  template <class U>
  friend class BasicEnvelopeRef;
  friend class EnvelopePool;

  explicit BasicEnvelopeRef(detail::EnvelopeSlot* slot) : slot_(slot) {}  // adopts refs == 1

  detail::EnvelopeSlot* slot_ = nullptr;
};

template <class A, class B>
[[nodiscard]] inline bool operator==(const BasicEnvelopeRef<A>& a, const BasicEnvelopeRef<B>& b) {
  return a.slot_ == b.slot_;
}

/// Shared read-only reference: what everything downstream of publish sees.
using EnvelopeRef = BasicEnvelopeRef<const Envelope>;
using EnvelopePtr = EnvelopeRef;  // historical alias; threads the whole stack
/// Producer-side reference: mutable while the envelope is being filled in
/// (or while a stashed publish is restamped before its first send).
using MutEnvelopeRef = BasicEnvelopeRef<Envelope>;

inline BasicEnvelopeRef<Envelope> EnvelopePool::make() {
  return BasicEnvelopeRef<Envelope>(acquire());
}

inline BasicEnvelopeRef<Envelope> EnvelopePool::clone(const Envelope& src) {
  BasicEnvelopeRef<Envelope> ref(acquire());
  ref->id = src.id;
  ref->kind = src.kind;
  ref->channel = src.channel;  // reuses the slot string's capacity
  ref->payload_bytes = src.payload_bytes;
  ref->publish_time = src.publish_time;
  ref->publisher = src.publisher;
  ref->channel_seq = src.channel_seq;
  ref->entry_version = src.entry_version;
  ref->forwarded = src.forwarded;
  ref->via_server = src.via_server;
  ref->body = src.body;
  ref->channel_id_ = src.channel_id_;  // the clone's name is already interned
  return ref;
}

/// Shorthand for EnvelopePool::instance().make().
[[nodiscard]] inline MutEnvelopeRef make_envelope() { return EnvelopePool::instance().make(); }
/// Shorthand for EnvelopePool::instance().clone(src).
[[nodiscard]] inline MutEnvelopeRef clone_envelope(const Envelope& src) {
  return EnvelopePool::instance().clone(src);
}

/// Bytes this envelope occupies on the wire (framing + payload).
inline std::size_t wire_size(const Envelope& e, std::size_t overhead_bytes) {
  return overhead_bytes + e.channel.size() + e.payload_bytes +
         (e.body ? e.body->wire_size() : 0);
}

}  // namespace dynamoth::ps
