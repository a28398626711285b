#include "core/dispatcher.h"

#include <algorithm>
#include <charconv>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "obs/trace.h"

namespace dynamoth::core {

namespace {
ClientId dispatcher_client_id(ServerId server) {
  return 0x2000'0000'0000'0000ull + server;
}

/// Parses "<id>" out of "@ctl:c:<id>"; returns 0 if not a client ctl channel.
ClientId parse_client_channel(const Channel& channel) {
  constexpr std::string_view prefix = "@ctl:c:";
  if (channel.rfind(prefix, 0) != 0) return 0;
  ClientId id = 0;
  const char* begin = channel.data() + prefix.size();
  const char* end = channel.data() + channel.size();
  auto [ptr, ec] = std::from_chars(begin, end, id);
  return (ec == std::errc() && ptr == end) ? id : 0;
}
}  // namespace

Dispatcher::Dispatcher(sim::Simulator& sim, net::Network& network, ServerRegistry& registry,
                       std::shared_ptr<const ConsistentHashRing> base_ring, ServerId self,
                       Config config, Rng rng)
    : sim_(sim),
      network_(network),
      registry_(registry),
      base_ring_(std::move(base_ring)),
      self_(self),
      config_(config),
      rng_(rng),
      plan_(make_plan_zero()),
      cleaner_(sim, config.cleanup_interval, [this] { cleanup(); }) {
  DYN_CHECK(base_ring_ != nullptr && !base_ring_->empty());
}

Dispatcher::~Dispatcher() { stop(); }

void Dispatcher::start() {
  if (started_) return;
  started_ = true;
  ps::PubSubServer& server = registry_.get(self_);
  server.add_observer(this);
  local_conn_ = connection(self_);
  DYN_CHECK(local_conn_ != nullptr);
  local_conn_->subscribe(kDispatcherChannel);
  cleaner_.start();
}

void Dispatcher::stop() {
  if (!started_) return;
  started_ = false;
  cleaner_.stop();
  if (ps::PubSubServer* server = registry_.find(self_)) server->remove_observer(this);
  conns_.clear();
  local_conn_ = nullptr;
}

ps::RemoteConnection* Dispatcher::connection(ServerId server) {
  auto it = conns_.find(server);
  if (it != conns_.end()) return it->second.get();
  ps::PubSubServer* srv = registry_.find(server);
  if (srv == nullptr || !srv->running()) return nullptr;
  auto conn = std::make_unique<ps::RemoteConnection>(
      sim_, network_, registry_.get(self_).node(), *srv,
      [this](const ps::EnvelopePtr& env) { on_ctl_deliver(env); }, nullptr);
  ps::RemoteConnection* raw = conn.get();
  conns_.emplace(server, std::move(conn));
  return raw;
}

ps::EnvelopePtr Dispatcher::make_ctl(ps::MsgKind kind, Channel channel,
                                     std::shared_ptr<const ps::ControlBody> body) {
  auto env = ps::make_envelope();
  env->id = MessageId{dispatcher_client_id(self_), next_seq_++};
  env->kind = kind;
  env->channel = std::move(channel);
  env->publish_time = sim_.now();
  env->publisher = dispatcher_client_id(self_);
  env->via_server = self_;
  env->body = std::move(body);
  return env;
}

void Dispatcher::apply_plan(PlanPtr plan) {
  DYN_CHECK(plan != nullptr);
  if (plan_ && plan->id() <= plan_->id() && plan->id() != 0) return;  // stale
  const PlanPtr old_plan = plan_;
  plan_ = std::move(plan);
  ++stats_.plans_applied;
  DYN_TRACE(instant(sim_.now(), self_, "dispatcher", "plan-apply", "plan_id",
                    static_cast<double>(plan_->id()), "entries",
                    static_cast<double>(plan_->entries().size())));
  const SimTime expires = sim_.now() + config_.forward_timeout;

  // Diff over the union of explicitly mapped channels; fallback-mapped
  // channels cannot change assignment (the base ring is immutable).
  std::set<Channel> channels;
  if (old_plan) {
    for (const auto& [c, _] : old_plan->entries()) channels.insert(c);
  }
  for (const auto& [c, _] : plan_->entries()) channels.insert(c);

  ps::PubSubServer& server = registry_.get(self_);
  for (const Channel& c : channels) {
    const ChannelId cid = intern_channel(c);
    const PlanEntry old_entry =
        old_plan ? old_plan->resolve(c, *base_ring_) : PlanEntry{{base_ring_->lookup(c)}, {}, 0};
    const PlanEntry new_entry = plan_->resolve(c, *base_ring_);
    if (old_entry.servers == new_entry.servers && old_entry.mode == new_entry.mode) {
      continue;  // unchanged assignment
    }
    const bool was_owner = old_entry.owns(self_);
    const bool is_owner = new_entry.owns(self_);

    if (was_owner && !is_owner) {
      // Channel moved away: redirect publishers, switch subscribers, notify
      // the new owners once all local subscribers are gone.
      MovedAway state;
      state.target = new_entry;
      state.expires = expires;
      moved_away_[cid] = state;
      set_flag(cid, kFlagMoved);
      drain_.erase(cid);
      pending_switch_.erase(cid);
      clear_flag(cid, kFlagDrain | kFlagPending);
      if (no_local_listeners(server, c)) maybe_send_drain_notice(cid, c);
    } else if (is_owner) {
      moved_away_.erase(cid);
      clear_flag(cid, kFlagMoved);
      if (was_owner) {
        // Remaining an owner under a changed entry (replica set resized or
        // mode flipped): local subscribers need the fresh entry, delivered
        // with the next publication here (staggered, like SWITCH).
        pending_switch_[cid] = PendingSwitch{new_entry, expires};
        set_flag(cid, kFlagPending);
      }
      // Forward to servers that may still hold subscribers not yet covered
      // by the new placement: old owners that left the set (until drained or
      // forward_timeout), and — when this server *joined* an all-subscribers
      // replica set — the old members, whose subscribers have not subscribed
      // here yet (short replica_join_sync window; switch notifications
      // re-place them almost immediately).
      for (ServerId s : old_entry.servers) {
        if (s == self_) continue;
        if (!new_entry.owns(s)) {
          drain_[cid].old_owners[s] = expires;
          set_flag(cid, kFlagDrain);
        } else if (!was_owner && new_entry.mode == ReplicationMode::kAllSubscribers) {
          drain_[cid].old_owners[s] = sim_.now() + config_.replica_join_sync;
          set_flag(cid, kFlagDrain);
        }
      }
    } else {
      // Neither old nor new owner, but keep any redirect state fresh.
      auto it = moved_away_.find(cid);
      if (it != moved_away_.end()) {
        it->second.target = new_entry;
        it->second.switch_sent = false;
        it->second.expires = expires;
      }
    }
  }
}

void Dispatcher::on_ctl_deliver(const ps::EnvelopePtr& env) {
  if (env->kind != ps::MsgKind::kDrainNotice) return;
  const auto* body = dynamic_cast<const DrainNoticeBody*>(env->body.get());
  if (body == nullptr) return;
  ++stats_.drain_notices_received;
  // A drain entry only exists for channels this dispatcher has already
  // interned, so a miss in the table means there is nothing to erase.
  const ChannelId cid = ChannelTable::instance().find(body->channel);
  if (cid == kInvalidChannelId) return;
  auto it = drain_.find(cid);
  if (it == drain_.end()) return;
  it->second.old_owners.erase(body->drained_server);
  if (it->second.old_owners.empty()) {
    drain_.erase(it);
    clear_flag(cid, kFlagDrain);
  }
}

void Dispatcher::on_publish(const ps::EnvelopePtr& env, std::size_t subscriber_count,
                            std::uint32_t /*publisher_weight*/) {
  // Application-level kControl publications (e.g. replay requests) ride
  // plan-routed channels and need the same repair/forwarding as data.
  if (env->kind != ps::MsgKind::kData && env->kind != ps::MsgKind::kControl) return;
  if (ChannelTable::instance().is_control(env->channel_id())) return;
  handle_data(env, subscriber_count);
}

Dispatcher::MovedAway& Dispatcher::moved_state(ChannelId cid, const ResolvedEntry& target) {
  auto it = moved_away_.find(cid);
  if (it == moved_away_.end()) {
    MovedAway state;
    state.target = target.materialize();
    state.expires = sim_.now() + config_.forward_timeout;
    it = moved_away_.emplace(cid, std::move(state)).first;
    set_flag(cid, kFlagMoved);
  } else {
    it->second.target = target.materialize();
    it->second.expires = sim_.now() + config_.forward_timeout;
  }
  return it->second;
}

void Dispatcher::handle_data(const ps::EnvelopePtr& env, std::size_t /*subscriber_count*/) {
  const Channel& c = env->channel;
  const ChannelId cid = env->channel_id();
  const ResolvedEntry entry = plan_->resolve_view(cid, c, *base_ring_);

  if (!entry.owns(self_)) {
    // Wrong server: the local pub/sub server has already delivered to any
    // local (stale) subscribers; we repair routing (paper IV-A2).
    MovedAway& state = moved_state(cid, entry);
    if (!state.switch_sent && send_switch(c, state.target)) {
      state.switch_sent = true;
      ++stats_.switches_sent;
    }

    if (!env->forwarded) {
      switch (entry.mode()) {
        case ReplicationMode::kNone:
          forward(env, entry.primary(), entry.version());
          break;
        case ReplicationMode::kAllSubscribers: {
          // Any single replica reaches all subscribers; spread by message id.
          const auto servers = entry.servers();
          const auto idx =
              static_cast<std::size_t>(std::hash<MessageId>{}(env->id) % servers.size());
          forward(env, servers[idx], entry.version());
          break;
        }
        case ReplicationMode::kAllPublishers:
          for (ServerId s : entry.servers()) forward(env, s, entry.version());
          break;
      }
      send_wrong_server(env->publisher, c, entry);
    }
    return;
  }

  // We own the channel — the steady-state path. One flag byte tells us
  // whether any reconfiguration state exists for this channel at all; when
  // it is zero (almost always) the pending-switch and drain hash probes
  // below are skipped entirely.
  const std::uint8_t rf = flags(cid);

  // If the entry changed while we kept ownership, tell the local subscribers
  // with this first publication (paper IV: switches ride on the first
  // publication after the plan change).
  if (rf & kFlagPending) {
    if (auto pit = pending_switch_.find(cid); pit != pending_switch_.end()) {
      if (sim_.now() > pit->second.expires || send_switch(c, pit->second.target)) {
        pending_switch_.erase(pit);
        clear_flag(cid, kFlagPending);
        ++stats_.switches_sent;
      }
    }
  }

  // A publisher using a stale entry version may not
  // know the current replication set: repair delivery if needed and send it
  // the fresh entry (this also upgrades hash-fallback publishers that
  // happened to hit a valid replica).
  if (!env->forwarded && env->entry_version < entry.version()) {
    if (entry.mode() == ReplicationMode::kAllPublishers) {
      // The publisher should have published everywhere; cover the replicas
      // it missed (duplicates are deduped client-side).
      for (ServerId s : entry.servers()) {
        if (s != self_) forward(env, s, entry.version());
      }
      ++stats_.replica_repairs;
    }
    send_wrong_server(env->publisher, c, entry);
  }

  // Forward to old owners still draining subscribers (paper IV: "publishing
  // on the new server").
  if (rf & kFlagDrain) {
    auto dit = drain_.find(cid);
    if (dit != drain_.end()) {
      const SimTime now = sim_.now();
      auto& holders = dit->second.old_owners;
      for (auto it = holders.begin(); it != holders.end();) {
        if (now > it->second) {
          it = holders.erase(it);
          continue;
        }
        if (it->first != env->via_server) {  // echo guard
          forward(env, it->first, entry.version());
          ++stats_.forwards_to_drain;
          --stats_.forwards_to_owner;  // forward() counts; reclassify
        }
        ++it;
      }
      if (holders.empty()) {
        drain_.erase(dit);
        clear_flag(cid, kFlagDrain);
      }
    }
  }
}

bool Dispatcher::send_switch(const Channel& channel, const PlanEntry& target) {
  if (!local_conn_) return false;
  auto body = std::make_shared<EntryUpdateBody>();
  body->channel = channel;
  body->entry = target;
  // Published on the data channel via the local server so every still-local
  // subscriber receives it (paper IV-A2 step 6).
  local_conn_->publish(make_ctl(ps::MsgKind::kSwitch, channel, std::move(body)));
  DYN_TRACE(instant(sim_.now(), self_, "dispatcher", "switch", "version",
                    static_cast<double>(target.version)));
  return true;
}

void Dispatcher::send_wrong_server(ClientId publisher, const Channel& channel,
                                   const ResolvedEntry& entry) {
  if (publisher == 0 || !local_conn_) return;
  auto body = std::make_shared<EntryUpdateBody>();
  body->channel = channel;
  body->entry = entry.materialize();
  local_conn_->publish(
      make_ctl(ps::MsgKind::kWrongServer, client_control_channel(publisher), std::move(body)));
  ++stats_.wrong_server_replies;
  DYN_TRACE(instant(sim_.now(), self_, "dispatcher", "wrong-server", "version",
                    static_cast<double>(entry.version())));
}

void Dispatcher::forward(const ps::EnvelopePtr& env, ServerId target,
                         std::uint64_t entry_version) {
  if (target == self_) return;
  ps::RemoteConnection* conn = connection(target);
  if (conn == nullptr) return;
  auto copy = ps::clone_envelope(*env);
  copy->forwarded = true;
  copy->via_server = self_;
  copy->entry_version = entry_version;
  conn->publish(std::move(copy));
  ++stats_.forwards_to_owner;
  DYN_TRACE_HOT(instant(sim_.now(), self_, "dispatcher", "forward", "target",
                        static_cast<double>(target)));
}

void Dispatcher::maybe_send_drain_notice(ChannelId cid, const Channel& channel) {
  auto it = moved_away_.find(cid);
  if (it == moved_away_.end() || it->second.drain_notice_sent) return;
  it->second.drain_notice_sent = true;
  send_drain_notice(channel, it->second.target);
}

void Dispatcher::send_drain_notice(const Channel& channel, const PlanEntry& target) {
  for (ServerId s : target.servers) {
    if (s == self_) continue;
    ps::RemoteConnection* conn = connection(s);
    if (conn == nullptr) continue;
    auto body = std::make_shared<DrainNoticeBody>();
    body->channel = channel;
    body->drained_server = self_;
    conn->publish(make_ctl(ps::MsgKind::kDrainNotice, kDispatcherChannel, std::move(body)));
    ++stats_.drain_notices_sent;
    DYN_TRACE(instant(sim_.now(), self_, "dispatcher", "drain-notice", "target",
                      static_cast<double>(s)));
  }
}

void Dispatcher::on_subscribe(ps::ConnId conn, const Channel& channel, NodeId client_node) {
  if (const ClientId id = parse_client_channel(channel)) {
    conn_clients_[conn] = id;  // identity announcement
    return;
  }
  if (is_control_channel(channel)) return;
  if (network_.kind(client_node) != net::NodeKind::kClient) return;

  const ChannelId cid = intern_channel(channel);
  const ResolvedEntry entry = plan_->resolve_view(cid, channel, *base_ring_);
  // Subscriptions to replicated channels always get the full entry: under
  // all-subscribers the client must subscribe to *every* replica, and under
  // all-publishers it must pick a *random* replica rather than pile onto the
  // hash-fallback server (the client re-places idempotently if it already
  // knew). For unreplicated channels a subscription landing on the owner is
  // correct and stays silent.
  if (entry.owns(self_) && entry.mode() == ReplicationMode::kNone) return;

  // Subscription on the wrong server (paper IV-A4): tell the client.
  auto cit = conn_clients_.find(conn);
  if (cit == conn_clients_.end() || !local_conn_) return;
  auto body = std::make_shared<EntryUpdateBody>();
  body->channel = channel;
  body->entry = entry.materialize();
  local_conn_->publish(make_ctl(ps::MsgKind::kWrongServer,
                                client_control_channel(cit->second), std::move(body)));
  ++stats_.wrong_subscriber_replies;
}

void Dispatcher::on_unsubscribe(ps::ConnId /*conn*/, const Channel& channel,
                                NodeId /*client_node*/) {
  if (is_control_channel(channel)) return;
  const ChannelId cid = ChannelTable::instance().find(channel);
  if (cid == kInvalidChannelId || !(flags(cid) & kFlagMoved)) return;
  if (no_local_listeners(registry_.get(self_), channel)) maybe_send_drain_notice(cid, channel);
}

void Dispatcher::on_punsubscribe(ps::ConnId /*conn*/, const std::string& pattern,
                                 NodeId /*client_node*/) {
  if (moved_away_.empty()) return;
  release_pattern_holds({pattern});
}

void Dispatcher::release_pattern_holds(const std::vector<std::string>& patterns) {
  // Which moved-away channels did the released patterns cover? Each needs
  // the same no-listeners re-check an explicit unsubscribe gets, or the old
  // owner keeps forwarding until the timeout even though nobody local is
  // left. maybe_send_drain_notice only flips a flag, so iterating the map
  // while calling it is safe.
  ps::PubSubServer& server = registry_.get(self_);
  const ChannelTable& table = ChannelTable::instance();
  for (auto& [cid, state] : moved_away_) {
    if (state.drain_notice_sent) continue;
    const Channel& name = table.name(cid);
    bool covered = false;
    for (const std::string& p : patterns) {
      if (ps::PubSubServer::glob_match(p, name)) {
        covered = true;
        break;
      }
    }
    if (covered && no_local_listeners(server, name)) maybe_send_drain_notice(cid, name);
  }
}

void Dispatcher::on_disconnect(ps::ConnId conn, const std::vector<Channel>& channels,
                               const std::vector<std::string>& patterns,
                               ps::CloseReason /*reason*/) {
  conn_clients_.erase(conn);
  ps::PubSubServer& server = registry_.get(self_);
  for (const Channel& ch : channels) {
    if (is_control_channel(ch)) continue;
    const ChannelId cid = ChannelTable::instance().find(ch);
    if (cid == kInvalidChannelId) continue;
    if ((flags(cid) & kFlagMoved) && no_local_listeners(server, ch)) {
      maybe_send_drain_notice(cid, ch);
    }
  }
  // The connection's pattern subscriptions may have been the last listeners
  // holding forwarded (moved-away) channels open; a pattern subscriber
  // disconnecting mid-reconfiguration must not strand that bookkeeping
  // until the forward timeout.
  if (!patterns.empty() && !moved_away_.empty()) release_pattern_holds(patterns);
}

void Dispatcher::cleanup() {
  const SimTime now = sim_.now();
  for (auto it = moved_away_.begin(); it != moved_away_.end();) {
    if (now > it->second.expires) {
      clear_flag(it->first, kFlagMoved);
      it = moved_away_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = drain_.begin(); it != drain_.end();) {
    auto& holders = it->second.old_owners;
    for (auto hit = holders.begin(); hit != holders.end();) {
      hit = now > hit->second ? holders.erase(hit) : std::next(hit);
    }
    if (holders.empty()) {
      clear_flag(it->first, kFlagDrain);
      it = drain_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_switch_.begin(); it != pending_switch_.end();) {
    if (now > it->second.expires) {
      clear_flag(it->first, kFlagPending);
      it = pending_switch_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dynamoth::core
