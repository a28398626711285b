#include "common/channel_table.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/thread_singleton.h"

namespace dynamoth {

namespace {

/// Tables of threads that have exited. Sharded runs start new shard threads
/// every run; each takes a retired table back, cleared, where it used to
/// leak a fresh one and grow it name by name in new memory.
struct Retired {
  std::mutex mu;
  std::vector<ChannelTable*> tables;
};

Retired& retired() {
  static auto* r = new Retired();  // leaked: thread exits may outlive statics
  return *r;
}

/// The calling thread's table; handed back to retired() when the thread
/// exits. Never deleted, so names stay valid through static teardown.
struct Lease {
  explicit Lease(ChannelTable* t) : table(t) {}
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  ~Lease() {
    const std::lock_guard<std::mutex> lock(retired().mu);
    retired().tables.push_back(table);
  }
  ChannelTable* table;
};

}  // namespace

ChannelTable& ChannelTable::instance() {
  // Per simulator thread: interned ids are only meaningful within one
  // simulation, and sharded mode runs one simulation per thread (DESIGN.md
  // section 15). A retired table is cleared before reuse, so a new thread
  // sees exactly what a fresh table would show; the process-lifetime
  // registry keeps LeakSanitizer satisfied.
  static thread_local const Lease lease([] {
    {
      const std::lock_guard<std::mutex> lock(retired().mu);
      if (!retired().tables.empty()) {
        ChannelTable* t = retired().tables.back();
        retired().tables.pop_back();
        t->clear();
        return t;
      }
    }
    auto* t = new ChannelTable();
    detail::retain_for_process_lifetime(t);
    return t;
  }());
  return *lease.table;
}

void ChannelTable::clear() {
  DYN_CHECK(listeners_.empty());
  ids_.clear();
  names_.clear();
  flags_.clear();
  directory_.clear();
}

void ChannelTable::add_listener(Listener* listener) {
  DYN_CHECK(listener != nullptr);
  if (std::find(listeners_.begin(), listeners_.end(), listener) == listeners_.end()) {
    listeners_.push_back(listener);
  }
}

void ChannelTable::remove_listener(Listener* listener) { std::erase(listeners_, listener); }

ChannelId ChannelTable::intern_new(std::string_view name, bool announce_now) {
  DYN_CHECK(names_.size() < kInvalidChannelId);
  const auto id = static_cast<ChannelId>(names_.size());
  const std::string& stored = names_.emplace_back(name);
  flags_.push_back((stored.rfind("@ctl:", 0) == 0 ? kControl : 0) | kQuiet);
  ids_.emplace(std::string_view(stored), id);
  if (announce_now) announce(id);
  return id;
}

void ChannelTable::announce(ChannelId id) {
  flags_[id] &= static_cast<std::uint8_t>(~kQuiet);
  directory_.push_back(id);
  // Index-based: a listener may add/remove listeners from its callback.
  // Listeners registered during notification do not see this channel (they
  // scan the directory when they register).
  const std::string& stored = names_[id];
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    listeners_[i]->on_new_channel(id, stored);
  }
}

}  // namespace dynamoth
