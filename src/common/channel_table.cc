#include "common/channel_table.h"

#include <algorithm>

#include "common/thread_singleton.h"

namespace dynamoth {

ChannelTable& ChannelTable::instance() {
  // Per simulator thread: interned ids are only meaningful within one
  // simulation, and sharded mode runs one simulation per thread (DESIGN.md
  // section 15). A table handed on from an exited thread is cleared first,
  // so a new thread sees exactly what a fresh table would show.
  static thread_local const detail::ThreadLease<ChannelTable> lease(
      [] { return new ChannelTable(); },
      [](ChannelTable& t) {
        t.clear();
        return true;
      });
  return lease.get();
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
