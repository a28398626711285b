// Registry of live pub/sub servers, shared by clients, dispatchers, the load
// balancer and the cloud provisioner. Stands in for service discovery.
#pragma once

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "pubsub/server.h"

namespace dynamoth::core {

class ServerRegistry {
 public:
  void add(ServerId id, ps::PubSubServer* server) {
    DYN_CHECK(server != nullptr);
    if (servers_.size() <= id) servers_.resize(id + 1, nullptr);
    if (servers_[id] == nullptr) ++size_;
    servers_[id] = server;
  }

  void remove(ServerId id) {
    if (id < servers_.size() && servers_[id] != nullptr) {
      servers_[id] = nullptr;
      --size_;
    }
  }

  /// Server by id, or nullptr if despawned/unknown.
  [[nodiscard]] ps::PubSubServer* find(ServerId id) const {
    return id < servers_.size() ? servers_[id] : nullptr;
  }

  [[nodiscard]] ps::PubSubServer& get(ServerId id) const {
    ps::PubSubServer* s = find(id);
    DYN_CHECK(s != nullptr);
    return *s;
  }

  /// Registered ids, ascending.
  [[nodiscard]] std::vector<ServerId> ids() const {
    std::vector<ServerId> out;
    out.reserve(size_);
    for (ServerId id = 0; id < servers_.size(); ++id) {
      if (servers_[id] != nullptr) out.push_back(id);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  /// Indexed by ServerId (a dense network node id); null = not registered.
  std::vector<ps::PubSubServer*> servers_;
  std::size_t size_ = 0;
};

}  // namespace dynamoth::core
