// Global channel-name interner.
//
// Channel names are arbitrary strings on the wire, but the hot paths — server
// subscription maps, dispatcher routing tables, LLA per-channel accumulators —
// should not hash and compare strings per publication. ChannelTable assigns
// every distinct name a dense uint32 ChannelId; id-keyed containers then
// replace string-keyed ones on those paths.
//
// Interning is idempotent (the same name always yields the same id within a
// process), so repeated in-process experiment runs observe identical ids and
// simulations stay bit-reproducible. Iteration order over id-keyed containers
// still differs from name order, so any code whose *output or decisions*
// depend on traversal order keeps name-ordered containers (see Plan and the
// LLA report) — ids are a lookup-speed device, not an ordering device.
//
// A client library interns a name the moment it first touches the channel,
// often before any server has seen it. It does so *quietly*: the name gets
// an id but is not yet announced to listeners or listed in the directory.
// The first ordinary intern() — a server taking the SUBSCRIBE or PUBLISH —
// announces it, exactly when an unquiet table would have created it, so
// pattern expansion sees the same names at the same instants in the same
// order.
//
// Single-threaded by design, like the simulator that drives all callers.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace dynamoth {

/// Dense identifier for an interned channel name.
using ChannelId = std::uint32_t;
inline constexpr ChannelId kInvalidChannelId = 0xFFFF'FFFF;

class ChannelTable {
 public:
  /// Notified when a name is interned for the first time. This is the
  /// directory hook behind incremental pattern expansion (DESIGN.md section
  /// 14): a pattern subscriber learns about newly created channels the
  /// instant any component interns the name, without polling. Listeners must
  /// not intern from inside the callback (re-entrancy); deferring work via
  /// the simulator is the expected shape.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void on_new_channel(ChannelId id, const std::string& name) = 0;
  };

  /// The calling simulator thread's table. All components of one simulation
  /// intern through this instance so ids are comparable across servers,
  /// dispatchers and the load balancer; ids are NOT comparable across shard
  /// threads, which is why only channel *names* cross shard boundaries.
  static ChannelTable& instance();

  void add_listener(Listener* listener);
  void remove_listener(Listener* listener);

  /// Returns the id for `name`, interning it on first sight. O(1) amortized;
  /// idempotent.
  ChannelId intern(std::string_view name) {
    const auto it = ids_.find(name);
    if (it == ids_.end()) return intern_new(name, /*announce_now=*/true);
    if (flags_[it->second] & kQuiet) [[unlikely]] announce(it->second);
    return it->second;
  }

  /// Returns the id for `name` like intern(), but a name interned here is
  /// not announced (no listener call, not in directory()) until its first
  /// intern().
  ChannelId intern_quiet(std::string_view name) {
    const auto it = ids_.find(name);
    return it != ids_.end() ? it->second : intern_new(name, /*announce_now=*/false);
  }

  /// Returns the id for `name` if it was ever interned, kInvalidChannelId
  /// otherwise. Never allocates.
  [[nodiscard]] ChannelId find(std::string_view name) const {
    const auto it = ids_.find(name);
    return it != ids_.end() ? it->second : kInvalidChannelId;
  }

  /// The interned name for a valid id. The reference is stable for the
  /// table's lifetime.
  [[nodiscard]] const std::string& name(ChannelId id) const {
    DYN_CHECK(id < names_.size());
    return names_[id];
  }

  /// True when the id names a "@ctl:" control channel. The prefix test is
  /// done once at intern time and cached, so routing and metrics code pays a
  /// vector load instead of a string compare per message.
  [[nodiscard]] bool is_control(ChannelId id) const {
    DYN_CHECK(id < flags_.size());
    return (flags_[id] & kControl) != 0;
  }

  /// False while the id was only ever interned quietly.
  [[nodiscard]] bool announced(ChannelId id) const {
    DYN_CHECK(id < flags_.size());
    return (flags_[id] & kQuiet) == 0;
  }

  /// Announced ids in announcement order: the directory a new pattern
  /// subscription scans. Grows while a caller iterates it by index.
  [[nodiscard]] const std::vector<ChannelId>& directory() const { return directory_; }

  /// Every interned name, quiet ones included.
  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  static constexpr std::uint8_t kControl = 1;  // "@ctl:" prefix
  static constexpr std::uint8_t kQuiet = 2;    // interned, not yet announced

  ChannelTable() = default;
  /// Back to the empty state, keeping capacity (a retired table's reuse).
  void clear();
  ChannelId intern_new(std::string_view name, bool announce_now);
  void announce(ChannelId id);

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Keys are views into names_; std::deque never relocates elements.
  std::unordered_map<std::string_view, ChannelId, StringHash, std::equal_to<>> ids_;
  std::deque<std::string> names_;
  std::vector<std::uint8_t> flags_;  // by id: kControl | kQuiet
  std::vector<ChannelId> directory_;
  /// Index-iterated during notification: a callback may register another
  /// listener (vector growth would invalidate iterators). Empty in every
  /// pattern-free run, so the fast path pays one empty() branch.
  std::vector<Listener*> listeners_;
};

/// Shorthand for ChannelTable::instance().intern(name).
inline ChannelId intern_channel(std::string_view name) {
  return ChannelTable::instance().intern(name);
}

}  // namespace dynamoth
