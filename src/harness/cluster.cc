#include "harness/cluster.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace dynamoth::harness {

Cluster::Cluster(ClusterConfig config) : config_(config), root_rng_(config.seed) {
  std::unique_ptr<net::LatencyModel> latency;
  if (config_.fixed_latency) {
    latency = std::make_unique<net::FixedLatencyModel>(config_.fixed_latency_value);
  } else {
    latency = std::make_unique<net::KingLatencyModel>(config_.king);
  }
  network_ = std::make_unique<net::Network>(sim_, std::move(latency), root_rng_.fork("net"));

  cloud_ = std::make_unique<core::Cloud>(
      sim_, config_.cloud, [this] { return spawn_server(); },
      [this](ServerId id) { despawn_server(id); });

  base_ring_mut_ = std::make_shared<core::ConsistentHashRing>();
  for (std::size_t i = 0; i < config_.initial_servers; ++i) {
    const ServerId id = spawn_server();
    base_ring_mut_->add_server(id);
  }
  base_ring_ = base_ring_mut_;
}

Cluster::~Cluster() {
  // Deterministic teardown: clients first (they hold connections into the
  // servers), then the balancer, then server stacks.
  clients_.clear();
  balancer_.reset();
  for (auto& [_, stack] : stacks_) {
    stack.dispatcher->stop();
    stack.lla->stop();
  }
}

ServerId Cluster::spawn_server() {
  net::NodeConfig node_config;
  node_config.kind = net::NodeKind::kInfrastructure;
  node_config.egress_bytes_per_sec = config_.server_capacity * config_.server_nic_headroom;
  const NodeId node = network_->add_node(node_config);

  ServerStack stack;
  stack.id = node;
  stack.server = std::make_unique<ps::PubSubServer>(sim_, *network_, node, config_.pubsub);
  registry_.add(node, stack.server.get());

  auto lla_config = config_.lla;
  lla_config.advertised_capacity = config_.server_capacity;
  stack.lla = std::make_unique<core::LocalLoadAnalyzer>(sim_, *network_, *stack.server,
                                                        lla_config);

  // The base ring may be empty while bootstrapping the very first server;
  // dispatchers require a non-empty ring, so seed it before constructing.
  if (base_ring_mut_ && base_ring_mut_->empty()) base_ring_mut_->add_server(node);
  stack.dispatcher = std::make_unique<core::Dispatcher>(
      sim_, *network_, registry_, base_ring_ ? base_ring_ : base_ring_mut_, node,
      config_.dispatcher, root_rng_.fork("dispatcher").fork(node));

  stack.lla->start();
  stack.dispatcher->start();
  if (balancer_ != nullptr) {
    // Hand the fresh dispatcher the current plan so it can route immediately.
    stack.dispatcher->apply_plan(balancer_->current_plan());
    wire_balancer(stack);
  }

  if (cloud_) cloud_->note_server_started(node);  // billing starts
  stacks_.emplace(node, std::move(stack));
  DYN_TRACE(set_track_name(node, "server " + std::to_string(node)));
  DYN_TRACE(instant(sim_.now(), node, "fleet", "server-start"));
  return node;
}

void Cluster::wire_balancer(ServerStack& stack) {
  // Monitoring flows LB-ward directly (paper Figure 1): the LLA sends to the
  // balancer node over the network, bypassing the local pub/sub server whose
  // CPU queue may be saturated — otherwise an overloaded server goes silent
  // and the balancer steers even more load onto it.
  stack.lla->set_report_target(balancer_node_, [lb = balancer_.get()](
                                                   const core::LoadReport& report) {
    lb->ingest_report(report);
  });
}

void Cluster::despawn_server(ServerId id) {
  auto it = stacks_.find(id);
  if (it == stacks_.end()) return;
  ServerStack& stack = it->second;
  stack.dispatcher->stop();
  stack.lla->stop();
  registry_.remove(id);
  stack.server->shutdown();
  network_->set_active(id, false);
  if (cloud_) cloud_->note_server_stopped(id);  // billing stops
  DYN_TRACE(instant(sim_.now(), id, "fleet", "server-stop"));
  // The stack object stays alive (in-flight callbacks may reference it).
}

void Cluster::crash_server(ServerId id) {
  auto it = stacks_.find(id);
  if (it == stacks_.end() || crashed_.contains(id)) return;
  ServerStack& stack = it->second;
  // Order matters: deregister first so nothing routes to the corpse while
  // the crash tears down connections.
  stack.dispatcher->stop();
  stack.lla->stop();
  registry_.remove(id);
  stack.server->crash();
  network_->set_active(id, false);
  crashed_.insert(id);
  // No note_server_stopped: the VM is still rented, just unresponsive.
  DYN_TRACE(instant(sim_.now(), id, "fault", "server-crash"));
}

void Cluster::restart_server(ServerId id) {
  auto it = stacks_.find(id);
  if (it == stacks_.end() || !crashed_.contains(id)) return;
  graveyard_.push_back(std::move(it->second));
  stacks_.erase(it);
  crashed_.erase(id);
  const std::uint64_t incarnation = ++restart_counts_[id];

  ServerStack stack;
  stack.id = id;
  stack.server = std::make_unique<ps::PubSubServer>(sim_, *network_, id, config_.pubsub);
  registry_.add(id, stack.server.get());
  auto lla_config = config_.lla;
  lla_config.advertised_capacity = config_.server_capacity;
  stack.lla = std::make_unique<core::LocalLoadAnalyzer>(sim_, *network_, *stack.server,
                                                        lla_config);
  // A distinct RNG lineage per incarnation: the old dispatcher's stream died
  // with it, and reusing it would couple pre- and post-crash randomness.
  stack.dispatcher = std::make_unique<core::Dispatcher>(
      sim_, *network_, registry_, base_ring_, id, config_.dispatcher,
      root_rng_.fork("dispatcher-restart").fork(id).fork(incarnation));

  network_->set_active(id, true);
  stack.lla->start();
  stack.dispatcher->start();
  if (balancer_ != nullptr) {
    stack.dispatcher->apply_plan(balancer_->current_plan());
    wire_balancer(stack);
  }
  stacks_.emplace(id, std::move(stack));
  DYN_TRACE(instant(sim_.now(), id, "fault", "server-restart"));
}

void Cluster::crash_dispatcher(ServerId id) {
  auto it = stacks_.find(id);
  if (it == stacks_.end() || crashed_.contains(id) || registry_.find(id) == nullptr) return;
  it->second.dispatcher->stop();
  DYN_TRACE(instant(sim_.now(), id, "fault", "dispatcher-crash"));
}

void Cluster::restart_dispatcher(ServerId id) {
  auto it = stacks_.find(id);
  if (it == stacks_.end() || crashed_.contains(id) || registry_.find(id) == nullptr) return;
  // The restarted process re-reads the latest plan from the balancer's
  // store (in the real system: fetched on boot).
  if (balancer_ != nullptr) it->second.dispatcher->apply_plan(balancer_->current_plan());
  it->second.dispatcher->start();
  DYN_TRACE(instant(sim_.now(), id, "fault", "dispatcher-restart"));
}

core::Dispatcher& Cluster::dispatcher(ServerId id) {
  auto it = stacks_.find(id);
  DYN_CHECK(it != stacks_.end());
  return *it->second.dispatcher;
}

core::LocalLoadAnalyzer& Cluster::lla(ServerId id) {
  auto it = stacks_.find(id);
  DYN_CHECK(it != stacks_.end());
  return *it->second.lla;
}

core::DynamothLoadBalancer& Cluster::use_dynamoth(core::DynamothLoadBalancer::Config config) {
  DYN_CHECK(balancer_ == nullptr);
  net::NodeConfig node_config;
  node_config.kind = net::NodeKind::kInfrastructure;
  node_config.egress_bytes_per_sec = config_.client_egress;
  balancer_node_ = network_->add_node(node_config);
  auto lb = std::make_unique<core::DynamothLoadBalancer>(
      sim_, registry_, base_ring_, balancer_node_, cloud_.get(), config);
  auto* raw = lb.get();
  DYN_TRACE(set_track_name(balancer_node_, "load balancer"));
  balancer_ = std::move(lb);
  balancer_->set_plan_delivery([this](ServerId server, const core::PlanPtr& plan) {
    deliver_plan(server, plan);
  });
  for (auto& [_, stack] : stacks_) {
    if (registry_.find(stack.id) != nullptr) wire_balancer(stack);
  }
  balancer_->start();
  return *raw;
}

baseline::ConsistentHashBalancer& Cluster::use_hash_balancer(
    baseline::ConsistentHashBalancer::Config config) {
  DYN_CHECK(balancer_ == nullptr);
  net::NodeConfig node_config;
  node_config.kind = net::NodeKind::kInfrastructure;
  node_config.egress_bytes_per_sec = config_.client_egress;
  balancer_node_ = network_->add_node(node_config);
  auto lb = std::make_unique<baseline::ConsistentHashBalancer>(
      sim_, registry_, base_ring_, balancer_node_, cloud_.get(), config);
  auto* raw = lb.get();
  DYN_TRACE(set_track_name(balancer_node_, "hash balancer"));
  balancer_ = std::move(lb);
  balancer_->set_plan_delivery([this](ServerId server, const core::PlanPtr& plan) {
    deliver_plan(server, plan);
  });
  for (auto& [_, stack] : stacks_) {
    if (registry_.find(stack.id) != nullptr) wire_balancer(stack);
  }
  balancer_->start();
  return *raw;
}

void Cluster::deliver_plan(ServerId server, const core::PlanPtr& plan) {
  // Direct LB -> dispatcher transport (paper IV-A1), charged to the
  // balancer node's egress; looked up at arrival in case the server has
  // been released meanwhile.
  network_->send(balancer_node_, server, plan->wire_size(), [this, server, plan] {
    auto it = stacks_.find(server);
    if (it != stacks_.end() && registry_.find(server) != nullptr) {
      it->second.dispatcher->apply_plan(plan);
    }
  });
}

void Cluster::install_plan(core::Plan plan) {
  plan.set_id(next_plan_id_++);
  auto frozen = std::make_shared<const core::Plan>(std::move(plan));
  for (auto& [id, stack] : stacks_) {
    if (registry_.find(id) != nullptr) stack.dispatcher->apply_plan(frozen);
  }
}

std::uint64_t Cluster::infrastructure_egress_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [id, _] : stacks_) total += network_->counters(id).bytes_sent;
  if (balancer_node_ != kInvalidNode) total += network_->counters(balancer_node_).bytes_sent;
  return total;
}

double Cluster::estimated_cost(const core::CostModel& model) const {
  const double rental = cloud_ ? cloud_->rental_cost(sim_.now(), model) : 0.0;
  const double egress_gb = static_cast<double>(infrastructure_egress_bytes()) / 1e9;
  return rental + egress_gb * model.egress_gb_dollars;
}

core::DynamothClient& Cluster::add_client(core::DynamothClient::Config config) {
  net::NodeConfig node_config;
  node_config.kind = net::NodeKind::kClient;
  node_config.egress_bytes_per_sec = config_.client_egress;
  const NodeId node = network_->add_node(node_config);
  const ClientId id = next_client_id_++;
  clients_.push_back(std::make_unique<core::DynamothClient>(
      sim_, *network_, registry_, base_ring_, node, id, config,
      root_rng_.fork("client").fork(id)));
  return *clients_.back();
}

}  // namespace dynamoth::harness
