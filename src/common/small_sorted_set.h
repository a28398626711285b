// A sorted set of small trivially copyable values with inline storage.
//
// The client library keeps a server set per channel (where its subscription
// lives) and builds two more per placement. Almost all of them hold one or
// two servers, so std::set's per-element tree node was an allocation for
// nothing. SmallSortedSet keeps up to N elements inline and spills the whole
// set to a heap vector only beyond N. Iteration is in ascending order, the
// same order std::set iterates in, so code that schedules events or draws
// from the RNG per element behaves identically.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace dynamoth {

template <class T, std::size_t N>
class SmallSortedSet {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  using const_iterator = const T*;

  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool contains(T value) const {
    const T* pos = std::lower_bound(begin(), end(), value);
    return pos != end() && *pos == value;
  }

  /// Inserts `value`; false when it was already present.
  bool insert(T value) {
    const std::size_t at = static_cast<std::size_t>(std::lower_bound(begin(), end(), value) - begin());
    if (at < size_ && data()[at] == value) return false;
    if (size_ < N) {
      std::copy_backward(inline_.begin() + at, inline_.begin() + size_,
                         inline_.begin() + size_ + 1);
      inline_[at] = value;
    } else {
      if (size_ == N) spill_.assign(inline_.begin(), inline_.end());
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(at), value);
    }
    ++size_;
    return true;
  }

  /// Removes `value`; false when it was absent.
  bool erase(T value) {
    const T* pos = std::lower_bound(begin(), end(), value);
    if (pos == end() || *pos != value) return false;
    const std::size_t at = static_cast<std::size_t>(pos - begin());
    if (size_ <= N) {
      std::copy(inline_.begin() + at + 1, inline_.begin() + size_, inline_.begin() + at);
    } else {
      spill_.erase(spill_.begin() + static_cast<std::ptrdiff_t>(at));
      // Back inline once it fits; the spill keeps its capacity.
      if (size_ - 1 == N) {
        std::copy(spill_.begin(), spill_.end(), inline_.begin());
        spill_.clear();
      }
    }
    --size_;
    return true;
  }

  void clear() {
    size_ = 0;
    spill_.clear();
  }

  friend bool operator==(const SmallSortedSet& a, const SmallSortedSet& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] const T* data() const { return size_ > N ? spill_.data() : inline_.data(); }

  std::size_t size_ = 0;
  std::array<T, N> inline_{};
  std::vector<T> spill_;  // every element while size_ > N, else empty
};

}  // namespace dynamoth
