// SmallSortedSet must behave like the std::set it replaces in the client:
// ascending iteration, set semantics, and the same contents across the
// inline -> spilled -> inline transitions.
#include "common/small_sorted_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"

namespace dynamoth {
namespace {

TEST(SmallSortedSet, MatchesStdSetAcrossSpillAndReturn) {
  SmallSortedSet<std::uint32_t, 4> small;
  std::set<std::uint32_t> reference;
  Rng rng(5);
  for (int step = 0; step < 2000; ++step) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_int(0, 11));
    if (rng.uniform_int(0, 2) == 0) {
      EXPECT_EQ(small.erase(v), reference.erase(v) == 1) << step;
    } else {
      EXPECT_EQ(small.insert(v), reference.insert(v).second) << step;
    }
    ASSERT_EQ(std::vector<std::uint32_t>(small.begin(), small.end()),
              std::vector<std::uint32_t>(reference.begin(), reference.end()))
        << step;
    ASSERT_EQ(small.contains(v), reference.contains(v));
  }
}

TEST(SmallSortedSet, CopiesAndClearsInBothRepresentations) {
  SmallSortedSet<std::uint32_t, 2> a;
  for (std::uint32_t v : {9u, 3u, 7u, 1u}) a.insert(v);  // spilled
  const SmallSortedSet<std::uint32_t, 2> copy = a;
  EXPECT_TRUE(copy == a);
  EXPECT_EQ(std::vector<std::uint32_t>(copy.begin(), copy.end()),
            (std::vector<std::uint32_t>{1, 3, 7, 9}));
  a.clear();
  EXPECT_TRUE(a.empty());
  a.insert(4);  // inline again after clear
  EXPECT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()), std::vector<std::uint32_t>{4});
  EXPECT_FALSE(copy == a);
}

}  // namespace
}  // namespace dynamoth
