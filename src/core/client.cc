#include "core/client.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::core {

namespace {
/// Pool blocks double from 1 state up to this size: a cohort client that
/// touches one channel pays for one state, a player's ~47 take six blocks.
constexpr std::size_t kMaxStateBlock = 16;
constexpr std::size_t kMinIndexSlots = 4;

/// Orders conns_ entries against a server id, for std::lower_bound.
constexpr auto kServerBefore = [](const auto& entry, ServerId id) { return entry.first < id; };
}  // namespace

// A new Stats field must be summed below too.
static_assert(sizeof(DynamothClient::Stats) == 16 * sizeof(std::uint64_t));

DynamothClient::Stats& DynamothClient::Stats::operator+=(const Stats& other) {
  published += other.published;
  messages_sent += other.messages_sent;
  received += other.received;
  duplicates_suppressed += other.duplicates_suppressed;
  stale_drops += other.stale_drops;
  wrong_server_replies += other.wrong_server_replies;
  switches_followed += other.switches_followed;
  connection_drops += other.connection_drops;
  entries_expired += other.entries_expired;
  fallback_resubscribes += other.fallback_resubscribes;
  refused_publishes += other.refused_publishes;
  pending_flushed += other.pending_flushed;
  publishes_dropped += other.publishes_dropped;
  republishes += other.republishes;
  pattern_deliveries += other.pattern_deliveries;
  patterns_expanded += other.patterns_expanded;
  return *this;
}

DynamothClient::DynamothClient(sim::Simulator& sim, net::Network& network,
                               ServerRegistry& registry,
                               std::shared_ptr<const ConsistentHashRing> base_ring,
                               NodeId node, ClientId id, Config config, Rng rng)
    : sim_(sim),
      network_(network),
      registry_(registry),
      base_ring_(std::move(base_ring)),
      node_(node),
      id_(id),
      config_(config),
      rng_(rng),
      dedup_(config.entry_timeout),
      ctl_channel_(client_control_channel(id)),
      sweeper_(sim, config.sweep_interval, [this] { sweep(); }),
      alive_(std::make_shared<bool>(true)) {
  DYN_CHECK(base_ring_ != nullptr && !base_ring_->empty());
  sweeper_.start();
}

DynamothClient::~DynamothClient() {
  *alive_ = false;
  shutdown();
}

void DynamothClient::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  sweeper_.stop();
  if (listening_) {
    ChannelTable::instance().remove_listener(this);
    listening_ = false;
  }
  for (auto& [_, conn] : conns_) conn->close();
  conns_.clear();
  // Pool blocks stay: a handler that shut us down may still hold its state.
  for (ChannelState* st : by_name_) release_state(*st);
  by_name_.clear();
  patterns_.clear();
  pending_expansions_.clear();
  pending_.clear();
  dedup_.clear();
}

DynamothClient::ChannelState* DynamothClient::find_state(ChannelId id) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = index_home(id);; i = (i + 1) & mask) {
    const IndexSlot& slot = index_[i];
    if (slot.id == id) return slot.state;
    if (slot.id == kInvalidChannelId) return nullptr;
  }
}

DynamothClient::ChannelState* DynamothClient::find_state(const Channel& channel) const {
  const ChannelId id = ChannelTable::instance().find(channel);
  return id == kInvalidChannelId ? nullptr : find_state(id);
}

void DynamothClient::index_insert(ChannelId id, ChannelState* st) {
  if ((by_name_.size() + 1) * 2 > index_.size()) {
    // Grow (or create) and rehash; the load factor stays <= 1/2.
    std::vector<IndexSlot> old = std::move(index_);
    index_.assign(std::max(kMinIndexSlots, old.size() * 2), IndexSlot{});
    index_shift_ = 32 - std::countr_zero(index_.size());
    for (const IndexSlot& slot : old) {
      if (slot.id != kInvalidChannelId) index_insert(slot.id, slot.state);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = index_home(id);
  while (index_[i].id != kInvalidChannelId) i = (i + 1) & mask;
  index_[i] = {id, st};
}

void DynamothClient::index_erase(ChannelId id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = index_home(id);
  while (index_[hole].id != id) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole unless that would move them before their home slot.
  for (std::size_t j = (hole + 1) & mask; index_[j].id != kInvalidChannelId; j = (j + 1) & mask) {
    const std::size_t home = index_home(index_[j].id);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexSlot{};
}

DynamothClient::ChannelState& DynamothClient::state_for(ChannelId id) {
  if (ChannelState* st = find_state(id)) return *st;
  ChannelState& st = acquire_state();
  index_insert(id, &st);
  const ChannelTable& table = ChannelTable::instance();
  // std::string's operator<, the order the old name-keyed map kept.
  by_name_.insert(std::lower_bound(by_name_.begin(), by_name_.end(), table.name(id),
                                   [&table](const ChannelState* s, const std::string& name) {
                                     return table.name(s->id) < name;
                                   }),
                  &st);
  // First contact with this channel: consistent-hashing fallback (plan 0).
  st.id = id;
  st.entry.servers = {base_ring_->lookup(table.name(id))};
  st.entry.mode = ReplicationMode::kNone;
  st.entry.version = 0;
  st.last_activity = sim_.now();
  return st;
}

DynamothClient::ChannelState& DynamothClient::acquire_state() {
  if (ChannelState* st = free_states_) {
    free_states_ = st->next_free;
    st->next_free = nullptr;
    return *st;
  }
  if (block_used_ == block_size_) {
    block_size_ = state_blocks_.empty() ? 1 : std::min(2 * block_size_, kMaxStateBlock);
    state_blocks_.push_back(std::make_unique<ChannelState[]>(block_size_));
    block_used_ = 0;
  }
  return state_blocks_.back()[block_used_++];
}

void DynamothClient::release_state(ChannelState& st) {
  index_erase(st.id);
  // Reset to a fresh state, keeping the server vector's capacity so that
  // re-creating a channel allocates nothing.
  std::vector<ServerId> servers = std::move(st.entry.servers);
  servers.clear();
  st = ChannelState{};
  st.entry.servers = std::move(servers);
  st.next_free = free_states_;
  free_states_ = &st;
}

ps::RemoteConnection* DynamothClient::connection(ServerId server) {
  auto it = std::lower_bound(conns_.begin(), conns_.end(), server, kServerBefore);
  if (it != conns_.end() && it->first == server) {
    if (it->second->server().running()) return it->second.get();
    // The peer process is gone: the OS would fail further sends on this
    // socket, so the library tears it down here. A *restarted* server is a
    // new process — the old connection must not transfer to it.
    ++stats_.connection_drops;
    conns_.erase(it);
  }
  ps::PubSubServer* srv = registry_.find(server);
  if (srv == nullptr || !srv->running()) return nullptr;

  auto conn = std::make_unique<ps::RemoteConnection>(
      sim_, network_, node_, *srv,
      [this, server](const ps::EnvelopePtr& env) { on_deliver(server, env); },
      [this, server](ps::CloseReason reason) { on_closed(server, reason); });
  ps::RemoteConnection* raw = conn.get();
  conns_.emplace(std::lower_bound(conns_.begin(), conns_.end(), server, kServerBefore), server,
                 std::move(conn));
  // Cohort weight is declared before anything else rides the stream, so the
  // server (and its LLA) never sees a subscription at the wrong multiplicity.
  if (config_.multiplicity > 1) raw->update_weight(config_.multiplicity);
  // Announce our identity so the local dispatcher can address replies to us.
  raw->subscribe(ctl_channel_);
  return raw;
}

bool DynamothClient::connected_to(ServerId server) const {
  auto it = std::lower_bound(conns_.begin(), conns_.end(), server, kServerBefore);
  return it != conns_.end() && it->first == server;
}

void DynamothClient::set_multiplicity(std::uint32_t multiplicity) {
  DYN_CHECK(multiplicity >= 1);
  if (config_.multiplicity == multiplicity) return;
  config_.multiplicity = multiplicity;
  for (auto& [server, conn] : conns_) {
    if (conn->open()) conn->update_weight(multiplicity);
  }
}

void DynamothClient::subscribe(const Channel& channel, MessageHandler handler) {
  DYN_CHECK(!is_control_channel(channel));
  DYN_CHECK(!shut_down_);
  ChannelState& st = state_for(channel);
  st.handler = std::move(handler);
  st.subscribed = true;
  st.last_activity = sim_.now();
  place_subscription(st);
}

void DynamothClient::unsubscribe(const Channel& channel) {
  ChannelState* found = find_state(channel);
  if (found == nullptr || !found->subscribed) return;
  ChannelState& st = *found;
  st.subscribed = false;
  st.handler = nullptr;
  st.last_activity = sim_.now();
  // Patterns expanded onto this channel still need the stream: the server-
  // side subscription stays until the last interest goes away.
  if (!st.patterns.empty()) return;
  teardown_placement(st);
}

void DynamothClient::teardown_placement(ChannelState& st) {
  for (ServerId s : st.sub_servers) {
    if (ps::RemoteConnection* conn = connection(s)) conn->unsubscribe(st.id);
  }
  st.sub_servers.clear();
}

void DynamothClient::psubscribe(const std::string& pattern, MessageHandler handler) {
  DYN_CHECK(!shut_down_);
  auto [it, inserted] = patterns_.try_emplace(pattern);
  PatternState& ps = it->second;
  ps.handler = std::move(handler);
  if (!inserted) return;  // handler replaced; expansion state already live
  ps.compiled = ps::CompiledPattern::compile(pattern);

  if (!listening_) {
    ChannelTable::instance().add_listener(this);
    listening_ = true;
  }

  // Expand against every name the process has announced (the directory
  // semantics: any channel a server has seen). The directory can grow during
  // the scan (placement interns control-channel names); new ids are covered
  // because the loop re-reads size() and attach_pattern is idempotent.
  const ChannelTable& table = ChannelTable::instance();
  for (std::size_t i = 0; i < table.directory().size(); ++i) {
    const ChannelId id = table.directory()[i];
    if (table.is_control(id)) continue;
    const std::string& name = table.name(id);
    if (ps.compiled.match(name)) attach_pattern(name, ps);
  }
}

void DynamothClient::punsubscribe(const std::string& pattern) {
  auto it = patterns_.find(pattern);
  if (it == patterns_.end()) return;
  PatternState& ps = it->second;
  for (const Channel& channel : ps.channels) {
    ChannelState* st = find_state(channel);
    if (st == nullptr) continue;
    std::erase(st->patterns, &ps);
    st->last_activity = sim_.now();
    if (!wants_subscription(*st)) teardown_placement(*st);
  }
  patterns_.erase(it);
  if (patterns_.empty() && listening_) {
    ChannelTable::instance().remove_listener(this);
    listening_ = false;
  }
}

void DynamothClient::attach_pattern(const Channel& channel, PatternState& pattern) {
  ChannelState& st = state_for(channel);
  if (std::find(st.patterns.begin(), st.patterns.end(), &pattern) != st.patterns.end()) return;
  st.patterns.push_back(&pattern);
  pattern.channels.insert(channel);
  st.last_activity = sim_.now();
  ++stats_.patterns_expanded;
  place_subscription(st);
}

void DynamothClient::on_new_channel(ChannelId id, const std::string& name) {
  if (shut_down_ || ChannelTable::instance().is_control(id)) return;
  // Cheap prefilter: only names some registered pattern matches are queued.
  bool matches = false;
  for (const auto& [_, ps] : patterns_) {
    if (ps.compiled.match(name)) {
      matches = true;
      break;
    }
  }
  if (!matches) return;
  pending_expansions_.push_back(name);
  if (expansion_scheduled_) return;
  expansion_scheduled_ = true;
  // Deferred: interning happens inside arbitrary components' call stacks
  // (often our own placement path); expanding re-entrantly from the listener
  // callback would mutate subscription state mid-operation.
  std::weak_ptr<bool> alive = alive_;
  sim_.schedule_after(0, [this, alive] {
    auto a = alive.lock();
    if (!a || !*a) return;
    expansion_scheduled_ = false;
    drain_expansions();
  });
}

void DynamothClient::drain_expansions() {
  // Swap out first: attach_pattern can intern new names, which re-enqueue.
  std::vector<std::string> names;
  names.swap(pending_expansions_);
  for (const std::string& name : names) {
    for (auto& [_, ps] : patterns_) {
      if (ps.compiled.match(name)) attach_pattern(name, ps);
    }
  }
}

void DynamothClient::place_subscription(ChannelState& st) {
  // Desired placement per replication mode (paper II-B).
  ServerSet want;
  switch (st.entry.mode) {
    case ReplicationMode::kNone:
      want.insert(st.entry.primary());
      break;
    case ReplicationMode::kAllSubscribers:
      for (ServerId s : st.entry.servers) want.insert(s);
      break;
    case ReplicationMode::kAllPublishers: {
      // Sticky random pick among the replicas; re-picked when invalidated.
      if (st.all_pubs_pick == kInvalidServer || !st.entry.owns(st.all_pubs_pick)) {
        const auto idx = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(st.entry.servers.size()) - 1));
        st.all_pubs_pick = st.entry.servers[idx];
      }
      want.insert(st.all_pubs_pick);
      break;
    }
  }

  // If every wanted server is gone (despawned without a plan update), fall
  // back to consistent hashing like a fresh client would (paper IV-A5's
  // expiry path, taken eagerly).
  bool any_reachable = false;
  for (ServerId s : want) {
    if (ps::PubSubServer* srv = registry_.find(s); srv && srv->running()) any_reachable = true;
  }
  if (!any_reachable && st.entry.version != 0) {
    fall_back_to_ring(st);
    want.clear();
    want.insert(st.entry.primary());
  }

  // Subscribe where missing. Only placements that actually reached a live
  // server are recorded: recording wishes as facts made a subscriber whose
  // target died mid-placement believe it was covered forever, and the sweep
  // reconciliation below could never catch it.
  ServerSet placed;
  for (ServerId s : want) {
    if (st.sub_servers.contains(s)) {
      placed.insert(s);
      continue;
    }
    if (ps::RemoteConnection* conn = connection(s)) {
      conn->subscribe(st.id);
      placed.insert(s);
    }
  }
  // Unsubscribe from removed servers after a grace period: "subscribe to the
  // channel on the new server and unsubscribe from the old one" (paper
  // IV-A4); the grace keeps us reachable while forwarded messages are in
  // flight. The callback captures the id (32 bytes, inline), not the name.
  std::weak_ptr<bool> alive = alive_;
  for (ServerId s : st.sub_servers) {
    if (want.contains(s)) continue;
    sim_.schedule_after(kUnsubscribeGrace, [this, alive, id = st.id, s] {
      auto a = alive.lock();
      if (!a || !*a) return;
      // Only drop the old subscription if it has not become wanted again.
      if (const ChannelState* cur = find_state(id); cur && cur->sub_servers.contains(s)) return;
      if (ps::RemoteConnection* conn = connection(s)) conn->unsubscribe(id);
    });
  }
  st.sub_servers = std::move(placed);
}

void DynamothClient::fall_back_to_ring(ChannelState& st) {
  st.entry.servers = {base_ring_->lookup(ChannelTable::instance().name(st.id))};
  st.entry.mode = ReplicationMode::kNone;
  st.entry.version = 0;
  st.all_pubs_pick = kInvalidServer;
}

void DynamothClient::ensure_live_entry(ChannelState& st) {
  // Entry pointing only at dead servers: fall back to consistent hashing
  // (ring members are never released, so this always reaches a live server).
  for (ServerId s : st.entry.servers) {
    if (ps::PubSubServer* srv = registry_.find(s); srv && srv->running()) return;
  }
  const std::vector<ServerId> old_servers = st.entry.servers;
  fall_back_to_ring(st);
  if (wants_subscription(st)) place_subscription(st);
  if (st.entry.servers != old_servers) republish_recent(st);
}

bool DynamothClient::route(ChannelState& st, const ps::EnvelopePtr& env) {
  bool sent = false;
  switch (st.entry.mode) {
    case ReplicationMode::kNone:
      if (ps::RemoteConnection* conn = connection(st.entry.primary())) {
        conn->publish(env);
        ++stats_.messages_sent;
        sent = true;
      }
      break;
    case ReplicationMode::kAllSubscribers: {
      // Publishers pick a random replica per publication (paper II-B1).
      const auto idx = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(st.entry.servers.size()) - 1));
      if (ps::RemoteConnection* conn = connection(st.entry.servers[idx])) {
        conn->publish(env);
        ++stats_.messages_sent;
        sent = true;
      }
      break;
    }
    case ReplicationMode::kAllPublishers:
      // Publishers send to every replica (paper II-B2).
      for (ServerId s : st.entry.servers) {
        if (ps::RemoteConnection* conn = connection(s)) {
          conn->publish(env);
          ++stats_.messages_sent;
          sent = true;
        }
      }
      break;
  }
  if (sent) remember_publish(st, env);
  return sent;
}

void DynamothClient::remember_publish(ChannelState& st, const ps::EnvelopePtr& env) {
  if (config_.republish_window <= 0 || env->kind != ps::MsgKind::kData) return;
  const SimTime cutoff = sim_.now() - config_.republish_window;
  RecentPublishes& r = st.recent;
  while (r.head < r.items.size() && r.items[r.head].first < cutoff) {
    r.items[r.head++].second.reset();  // release the envelope as it expires
  }
  // Compact once the consumed prefix is half the vector: amortized O(1).
  if (r.head * 2 >= r.items.size()) {
    r.items.erase(r.items.begin(), r.items.begin() + static_cast<std::ptrdiff_t>(r.head));
    r.head = 0;
  }
  r.items.emplace_back(sim_.now(), env);
}

void DynamothClient::republish_recent(ChannelState& st) {
  RecentPublishes& r = st.recent;
  if (config_.republish_window <= 0 || r.head == r.items.size()) return;
  const SimTime cutoff = sim_.now() - config_.republish_window;
  for (std::size_t i = r.head; i < r.items.size(); ++i) {
    const auto& [t, env] = r.items[i];
    if (t < cutoff) continue;
    ++stats_.republishes;
    if (pending_.size() >= config_.max_pending_publishes) {
      ++stats_.publishes_dropped;
      pending_.pop_front();
    }
    pending_.push_back(ps::clone_envelope(*env));
  }
  // The clones re-enter `recent` when they are flushed through the new
  // placement; keeping the originals would retransmit them twice.
  r.items.clear();
  r.head = 0;
}

void DynamothClient::stash_pending(ps::MutEnvelopeRef env) {
  ++stats_.refused_publishes;
  if (pending_.size() >= config_.max_pending_publishes) {
    ++stats_.publishes_dropped;
    pending_.pop_front();
  }
  pending_.push_back(std::move(env));
}

void DynamothClient::flush_pending() {
  if (pending_.empty()) return;
  std::deque<ps::MutEnvelopeRef> retry;
  retry.swap(pending_);
  for (ps::MutEnvelopeRef& env : retry) {
    // By name: channel_id() would intern loudly and announce a name no
    // server has seen yet.
    ChannelState& st = state_for(env->channel);
    ensure_live_entry(st);
    // Safe to restamp: a stashed envelope was never handed to any receiver.
    env->entry_version = st.entry.version;
    if (route(st, env)) {
      ++stats_.pending_flushed;
    } else {
      pending_.push_back(std::move(env));
    }
  }
}

void DynamothClient::name_channel(ps::Envelope& env, ChannelId id) {
  // Stamping the id spares the first server its hash of the name. A name no
  // server has announced yet travels unstamped, so that server's intern()
  // announces it at the same instant as ever.
  const ChannelTable& table = ChannelTable::instance();
  if (table.announced(id)) {
    env.set_channel(id);
  } else {
    env.channel = table.name(id);
  }
}

ps::EnvelopePtr DynamothClient::publish(const Channel& channel, std::size_t payload_bytes) {
  DYN_CHECK(!is_control_channel(channel));
  DYN_CHECK(!shut_down_);
  // Older refused publishes go first, preserving per-channel seq order when
  // the outage ends.
  flush_pending();
  ChannelState& st = state_for(channel);
  st.last_activity = sim_.now();
  ensure_live_entry(st);

  auto env = ps::make_envelope();
  env->id = MessageId{id_, next_seq_++};
  env->kind = ps::MsgKind::kData;
  name_channel(*env, st.id);
  env->payload_bytes = payload_bytes ? payload_bytes : kDefaultPayloadBytes;
  env->publish_time = sim_.now();
  env->publisher = id_;
  env->channel_seq = ++st.next_channel_seq;
  env->entry_version = st.entry.version;

  ++stats_.published;
  DYN_TRACE_HOT(instant(sim_.now(), node_, "client", "publish", "server",
                        static_cast<double>(st.entry.primary()), "version",
                        static_cast<double>(st.entry.version)));
  if (!route(st, env)) stash_pending(env);
  return env;
}

ps::EnvelopePtr DynamothClient::publish_control(const Channel& channel,
                                                std::shared_ptr<const ps::ControlBody> body,
                                                std::size_t payload_bytes) {
  // Reuse the data-path routing, then stamp the control body/kind. The
  // envelope cannot be mutated after publish (receivers share it), so build
  // it the same way publish() does and send manually.
  DYN_CHECK(!is_control_channel(channel));
  DYN_CHECK(!shut_down_);
  ChannelState& st = state_for(channel);
  st.last_activity = sim_.now();

  auto env = ps::make_envelope();
  env->id = MessageId{id_, next_seq_++};
  env->kind = ps::MsgKind::kControl;
  name_channel(*env, st.id);
  env->payload_bytes = payload_bytes;
  env->publish_time = sim_.now();
  env->publisher = id_;
  env->entry_version = st.entry.version;
  env->body = std::move(body);

  ++stats_.published;
  if (!route(st, env)) stash_pending(env);
  return env;
}

void DynamothClient::apply_entry(const Channel& channel, const PlanEntry& entry) {
  if (entry.servers.empty()) return;
  ChannelState& st = state_for(channel);
  if (entry.version < st.entry.version) return;  // stale update
  if (entry == st.entry) return;
  const bool rehomed = entry.servers != st.entry.servers;
  st.entry = entry;
  st.last_activity = sim_.now();
  if (wants_subscription(st)) place_subscription(st);
  // The previous owner may have died with the tail of our stream; push the
  // recent publishes through the new placement (receivers dedup by id).
  if (rehomed) republish_recent(st);
}

void DynamothClient::on_deliver(ServerId /*from*/, const ps::EnvelopePtr& env) {
  if (shut_down_) return;
  switch (env->kind) {
    case ps::MsgKind::kWrongServer: {
      // Reply on our control channel: adopt the corrected entry. The
      // dispatcher already forwarded the original message (paper IV).
      if (const auto* body = dynamic_cast<const EntryUpdateBody*>(env->body.get())) {
        ++stats_.wrong_server_replies;
        apply_entry(body->channel, body->entry);
      }
      return;
    }
    case ps::MsgKind::kSwitch: {
      // Published on the data channel by the old owner's dispatcher.
      if (const auto* body = dynamic_cast<const EntryUpdateBody*>(env->body.get())) {
        ++stats_.switches_followed;
        DYN_TRACE(instant(sim_.now(), node_, "client", "switch-followed", "version",
                          static_cast<double>(body->entry.version)));
        apply_entry(body->channel, body->entry);
      }
      return;
    }
    case ps::MsgKind::kControl:  // application-level protocol messages
    case ps::MsgKind::kData: {
      if (!dedup_.insert(env->id, sim_.now())) {
        ++stats_.duplicates_suppressed;
        return;
      }
      ChannelState* found = find_state(env->channel_id());
      if (found == nullptr) {
        ++stats_.stale_drops;  // e.g. unsubscribed while the message was in flight
        return;
      }
      // Pool slots never move, so `st` stays valid while a handler creates
      // other channel states.
      ChannelState& st = *found;
      const bool explicit_sub = st.subscribed && st.handler;
      // Snapshot the matching pattern handlers before invoking anything: a
      // handler may mutate channel state (the member scratch keeps the
      // steady-state delivery path allocation-free).
      pattern_scratch_.clear();
      for (PatternState* p : st.patterns) {
        if (p->handler) pattern_scratch_.push_back(p);
      }
      if (!explicit_sub && pattern_scratch_.empty()) {
        ++stats_.stale_drops;
        return;
      }
      st.last_activity = sim_.now();
      ++stats_.received;
      // One invocation per held subscription (Redis semantics): the explicit
      // handler plus each pattern expanded onto the channel, exactly once
      // per message id (the dedup above covers replicated placements).
      if (explicit_sub) st.handler(env);
      for (PatternState* p : pattern_scratch_) {
        ++stats_.pattern_deliveries;
        p->handler(env);
      }
      return;
    }
    default:
      return;  // other control kinds are not addressed to clients
  }
}

void DynamothClient::on_closed(ServerId from, ps::CloseReason /*reason*/) {
  if (shut_down_) return;
  ++stats_.connection_drops;
  DYN_TRACE(instant(sim_.now(), node_, "client", "connection-drop", "server",
                    static_cast<double>(from)));

  // The stub is dead; drop it (deferred: we may be inside its callback).
  std::weak_ptr<bool> alive = alive_;
  sim_.schedule_after(0, [this, alive, from] {
    auto a = alive.lock();
    if (!a || !*a) return;
    auto it = std::lower_bound(conns_.begin(), conns_.end(), from, kServerBefore);
    if (it != conns_.end() && it->first == from) conns_.erase(it);
  });

  // Re-place subscriptions that lived on that server after a reconnect
  // delay (Redis clients reconnect and resubscribe after being dropped), in
  // channel-name order.
  for (ChannelState* st : by_name_) {
    if (!st->sub_servers.erase(from)) continue;
    if (st->entry.mode == ReplicationMode::kAllPublishers && st->all_pubs_pick == from) {
      st->all_pubs_pick = kInvalidServer;
    }
    if (!wants_subscription(*st)) continue;
    sim_.schedule_after(config_.reconnect_delay, [this, alive, id = st->id] {
      auto a = alive.lock();
      if (!a || !*a) return;
      ChannelState* st2 = find_state(id);
      if (st2 == nullptr || !wants_subscription(*st2)) return;
      // If the server vanished entirely, fall back to consistent hashing.
      bool any_alive = false;
      for (ServerId s : st2->entry.servers) {
        if (ps::PubSubServer* srv = registry_.find(s); srv && srv->running()) any_alive = true;
      }
      if (!any_alive) fall_back_to_ring(*st2);
      place_subscription(*st2);
    });
  }
}

void DynamothClient::sweep() {
  flush_pending();
  dedup_.sweep(sim_.now());
  // Expire plan entries for channels we neither subscribe to nor use
  // (paper IV-A5): next use falls back to consistent hashing. Walks in
  // channel-name order, compacting by_name_ over expired states; nothing
  // below creates a state, so the walk sees every live one exactly once.
  const SimTime now = sim_.now();
  const std::size_t live = by_name_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < live; ++i) {
    ChannelState& st = *by_name_[i];
    // Pattern-held channels never expire: the pattern's interest is
    // standing, independent of traffic.
    if (!wants_subscription(st) && now - st.last_activity > config_.entry_timeout) {
      ++stats_.entries_expired;
      release_state(st);
      continue;
    }
    by_name_[kept++] = &st;
    if (wants_subscription(st)) {
      // Reconciliation: a subscription whose placement is empty (placement
      // failed) or references a dead server is not actually receiving
      // anything — re-place it, falling back to the ring if needed.
      bool broken = st.sub_servers.empty();
      for (ServerId s : st.sub_servers) {
        ps::PubSubServer* srv = registry_.find(s);
        if (srv == nullptr || !srv->running()) {
          broken = true;
          break;
        }
      }
      if (broken) {
        ++stats_.fallback_resubscribes;
        ensure_live_entry(st);
        place_subscription(st);
      } else if (config_.resubscribe_keepalive) {
        // Re-SUBSCRIBE where we believe we are placed: idempotent at the
        // server, and a zombie connection (closed server-side, notification
        // lost) bounces with a reset, which finally tells us the truth.
        for (ServerId s : st.sub_servers) {
          if (ps::RemoteConnection* conn = connection(s)) conn->subscribe(st.id);
        }
      }
    }
  }
  DYN_CHECK(by_name_.size() == live);
  by_name_.resize(kept);
}

bool DynamothClient::subscribed(const Channel& channel) const {
  const ChannelState* st = find_state(channel);
  return st != nullptr && st->subscribed;
}

bool DynamothClient::pattern_subscribed(const std::string& pattern) const {
  return patterns_.contains(pattern);
}

std::set<Channel> DynamothClient::pattern_channels(const std::string& pattern) const {
  auto it = patterns_.find(pattern);
  return it == patterns_.end() ? std::set<Channel>{} : it->second.channels;
}

const PlanEntry* DynamothClient::plan_entry(const Channel& channel) const {
  const ChannelState* st = find_state(channel);
  return st == nullptr ? nullptr : &st->entry;
}

std::set<ServerId> DynamothClient::subscription_servers(const Channel& channel) const {
  const ChannelState* st = find_state(channel);
  return st == nullptr ? std::set<ServerId>{}
                       : std::set<ServerId>(st->sub_servers.begin(), st->sub_servers.end());
}

}  // namespace dynamoth::core
