// Lifecycle tests for the pooled intrusive-refcount envelope (EnvelopePool /
// BasicEnvelopeRef): refcounts across copies and fan-out, release-on-cancel,
// slot reuse, field reset between occupants, and a warm-pool determinism
// guard. The pool is process-global, so every expectation is a *delta*
// against the pool's state at test entry.
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pubsub/envelope.h"
#include "pubsub/server.h"
#include "sim/simulator.h"

namespace dynamoth::ps {
namespace {

TEST(EnvelopePool, MakeProducesDefaultEnvelopeWithOneRef) {
  const std::size_t live_before = EnvelopePool::instance().live();
  MutEnvelopeRef env = make_envelope();
  EXPECT_EQ(env.ref_count(), 1u);
  EXPECT_EQ(EnvelopePool::instance().live(), live_before + 1);
  EXPECT_EQ(env->kind, MsgKind::kData);
  EXPECT_TRUE(env->channel.empty());
  EXPECT_EQ(env->payload_bytes, 0u);
  EXPECT_EQ(env->channel_seq, 0u);
  EXPECT_FALSE(env->forwarded);
  EXPECT_EQ(env->body, nullptr);
  env.reset();
  EXPECT_EQ(EnvelopePool::instance().live(), live_before);
}

TEST(EnvelopePool, RefcountTracksCopiesAndConversions) {
  MutEnvelopeRef env = make_envelope();
  EXPECT_EQ(env.ref_count(), 1u);
  {
    EnvelopePtr shared = env;  // mut -> const conversion shares the slot
    EXPECT_EQ(env.ref_count(), 2u);
    EXPECT_TRUE(shared == EnvelopePtr(env));
    EnvelopePtr copy = shared;
    EXPECT_EQ(env.ref_count(), 3u);
    EnvelopePtr moved = std::move(copy);
    EXPECT_EQ(env.ref_count(), 3u);  // move transfers, no bump
    EXPECT_EQ(copy, nullptr);        // NOLINT(bugprone-use-after-move)
  }
  EXPECT_EQ(env.ref_count(), 1u);
}

TEST(EnvelopePool, SlotIsReusedAfterRelease) {
  // Drain-then-reacquire: with one envelope made and released, the next
  // acquisition must come off the free list, not fresh slab space.
  {
    MutEnvelopeRef warmup = make_envelope();  // ensure the slab exists
  }
  const std::size_t capacity_before = EnvelopePool::instance().capacity();
  const std::uint64_t reused_before = EnvelopePool::instance().reused();
  const Envelope* first;
  {
    MutEnvelopeRef env = make_envelope();
    first = env.get();
  }
  MutEnvelopeRef again = make_envelope();
  EXPECT_EQ(again.get(), first);  // same slot handed back
  EXPECT_EQ(EnvelopePool::instance().capacity(), capacity_before);
  EXPECT_GE(EnvelopePool::instance().reused(), reused_before + 2);
}

TEST(EnvelopePool, ReleaseResetsEveryFieldForTheNextOccupant) {
  auto body = std::make_shared<ControlBody>();
  std::weak_ptr<const ControlBody> body_watch = body;
  const Envelope* slot_addr;
  {
    MutEnvelopeRef env = make_envelope();
    slot_addr = env.get();
    env->id = MessageId{7, 42};
    env->kind = MsgKind::kSwitch;
    env->channel = "pool-reset-check";
    env->payload_bytes = 999;
    env->publish_time = 123;
    env->publisher = 7;
    env->channel_seq = 42;
    env->entry_version = 3;
    env->forwarded = true;
    env->via_server = 5;
    env->body = std::move(body);
    (void)env->channel_id();  // populate the cached interned id
  }
  EXPECT_TRUE(body_watch.expired());  // control body released with the slot

  MutEnvelopeRef fresh = make_envelope();
  ASSERT_EQ(fresh.get(), slot_addr);
  EXPECT_EQ(fresh->id, MessageId{});
  EXPECT_EQ(fresh->kind, MsgKind::kData);
  EXPECT_TRUE(fresh->channel.empty());
  EXPECT_EQ(fresh->payload_bytes, 0u);
  EXPECT_EQ(fresh->publish_time, 0);
  EXPECT_EQ(fresh->publisher, 0u);
  EXPECT_EQ(fresh->channel_seq, 0u);
  EXPECT_EQ(fresh->entry_version, 0u);
  EXPECT_FALSE(fresh->forwarded);
  EXPECT_EQ(fresh->via_server, kInvalidNode);
  EXPECT_EQ(fresh->body, nullptr);
  // The stale cached channel id must not leak into the next occupant.
  fresh->channel = "pool-reset-check-other";
  EXPECT_EQ(fresh->channel_id(), intern_channel("pool-reset-check-other"));
}

TEST(EnvelopePool, CloneCopiesFieldsAndSharesTheBody) {
  auto body = std::make_shared<ControlBody>();
  MutEnvelopeRef original = make_envelope();
  original->id = MessageId{3, 9};
  original->channel = "clone-src";
  original->payload_bytes = 77;
  original->channel_seq = 9;
  original->body = body;
  (void)original->channel_id();

  MutEnvelopeRef copy = clone_envelope(*original);
  EXPECT_FALSE(copy == original);  // distinct slots
  EXPECT_EQ(copy->id, original->id);
  EXPECT_EQ(copy->channel, "clone-src");
  EXPECT_EQ(copy->payload_bytes, 77u);
  EXPECT_EQ(copy->channel_seq, 9u);
  EXPECT_EQ(copy->body.get(), body.get());       // shared, not deep-copied
  EXPECT_EQ(copy->channel_id(), original->channel_id());
  EXPECT_EQ(copy.ref_count(), 1u);
  EXPECT_EQ(original.ref_count(), 1u);  // clone holds no ref on the source
}

TEST(EnvelopePool, FanOutHoldsTheEnvelopeUntilTheLastDeliveryFires) {
  const std::size_t live_before = EnvelopePool::instance().live();
  sim::Simulator sim;
  constexpr int kSubscribers = 8;
  int delivered = 0;
  {
    EnvelopePtr env = make_envelope();
    for (int i = 0; i < kSubscribers; ++i) {
      sim.schedule_after(i + 1, [env, &delivered] {
        ++delivered;
        EXPECT_GT(env.ref_count(), 0u);
      });
    }
    EXPECT_EQ(env.ref_count(), 1u + kSubscribers);
  }
  // Only the scheduled deliveries hold it now.
  EXPECT_EQ(EnvelopePool::instance().live(), live_before + 1);
  sim.run();
  EXPECT_EQ(delivered, kSubscribers);
  EXPECT_EQ(EnvelopePool::instance().live(), live_before);
}

TEST(EnvelopePool, CancellingAnInFlightDeliveryReleasesItsRef) {
  const std::size_t live_before = EnvelopePool::instance().live();
  sim::Simulator sim;
  sim::EventId pending;
  {
    EnvelopePtr env = make_envelope();
    pending = sim.schedule_after(10, [env] {});
  }
  EXPECT_EQ(EnvelopePool::instance().live(), live_before + 1);
  EXPECT_TRUE(sim.cancel(pending));  // destroys the callback -> releases env
  EXPECT_EQ(EnvelopePool::instance().live(), live_before);
  sim.run();
}

// Warm-pool determinism guard: the same substrate fan-out scenario run twice
// in one process — the second run on a warm pool (every slot recycled) and a
// warm ChannelTable — must deliver at identical times in identical order.
// Companion to GameExperiment.Fig5ScenarioIsBitwiseDeterministic, which
// covers the full stack.
TEST(EnvelopePool, WarmPoolRunIsBitIdenticalToColdRun) {
  auto run_once = [] {
    sim::Simulator sim;
    net::Network network(sim, std::make_unique<net::FixedLatencyModel>(millis(10), millis(1)),
                         Rng(13));
    const NodeId server_node = network.add_node({net::NodeKind::kInfrastructure, 1e6});
    PubSubServer server(sim, network, server_node, {});
    std::vector<std::pair<SimTime, std::uint64_t>> deliveries;
    std::vector<ConnId> conns;
    for (int i = 0; i < 5; ++i) {
      conns.push_back(server.open_connection(
          network.add_node({net::NodeKind::kClient, 1e6}),
          [&deliveries, &sim](const EnvelopePtr& env) {
            deliveries.emplace_back(sim.now(), env->id.seq);
          },
          nullptr));
      server.handle_subscribe(conns.back(), "pool-warm-guard");
    }
    const ConnId pub = server.open_connection(
        network.add_node({net::NodeKind::kClient, 1e6}), nullptr, nullptr);
    for (std::uint64_t s = 1; s <= 50; ++s) {
      MutEnvelopeRef env = make_envelope();
      env->id = MessageId{77, s};
      env->channel = "pool-warm-guard";
      env->payload_bytes = 64;
      env->publisher = 77;
      env->channel_seq = s;
      server.handle_publish(pub, std::move(env));
      sim.run();
    }
    return deliveries;
  };

  const auto cold = run_once();
  const auto warm = run_once();
  ASSERT_EQ(cold.size(), warm.size());
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(cold.size(), 250u);
}

TEST(EnvelopePool, DrainedPoolPassesToNewThread) {
  // A thread's pool is handed to a later thread when it exits with no live
  // envelopes; the later thread sees no live envelopes and no reuse yet, and
  // serves its first envelope from the inherited slab.
  const EnvelopePool* first = nullptr;
  std::size_t first_capacity = 0;
  std::thread([&] {
    first = &EnvelopePool::instance();
    { MutEnvelopeRef a = make_envelope(); }
    { MutEnvelopeRef b = make_envelope(); }  // reuses a's slot
    first_capacity = EnvelopePool::instance().capacity();
  }).join();

  const EnvelopePool* second = nullptr;
  std::size_t live = 1;
  std::uint64_t reused = 1;
  std::size_t capacity_after_make = 0;
  std::thread([&] {
    EnvelopePool& pool = EnvelopePool::instance();
    second = &pool;
    live = pool.live();
    reused = pool.reused();
    MutEnvelopeRef env = make_envelope();
    capacity_after_make = pool.capacity();
  }).join();

  EXPECT_EQ(second, first);
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(reused, 0u);
  EXPECT_EQ(capacity_after_make, first_capacity);  // no new slab
}

TEST(EnvelopePool, PoolWithLiveEnvelopesStaysParked) {
  // An envelope that outlives its thread's pool lease keeps that pool
  // parked: a thread started meanwhile must get another pool. Thread-local
  // objects die in reverse order of construction, so `holder` (built before
  // the thread first touches its pool) releases its envelope only after the
  // pool has been parked, and probes for a new thread's pool first.
  struct Holder {
    MutEnvelopeRef env;
    std::function<void()> before_release;
    ~Holder() {
      if (before_release) before_release();
    }
  };
  const EnvelopePool* parked = nullptr;
  const EnvelopePool* other = nullptr;
  std::size_t other_live = 1;
  std::thread([&] {
    thread_local Holder holder;
    parked = &EnvelopePool::instance();
    holder.env = make_envelope();
    holder.before_release = [&] {
      std::thread([&] {
        other = &EnvelopePool::instance();
        other_live = other->live();
      }).join();
    };
  }).join();

  ASSERT_NE(other, nullptr);
  EXPECT_NE(other, parked);
  EXPECT_EQ(other_live, 0u);
}

}  // namespace
}  // namespace dynamoth::ps
