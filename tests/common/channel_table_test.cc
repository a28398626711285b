// Tests for the global channel-name interner. The table is a process-wide
// singleton, so these tests use names unique to this file and assert
// relative properties (idempotence, stability) rather than absolute ids.
#include "common/channel_table.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dynamoth {
namespace {

TEST(ChannelTable, InternIsIdempotent) {
  const ChannelId a = intern_channel("ctt:idem:x");
  const ChannelId b = intern_channel("ctt:idem:x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidChannelId);
}

TEST(ChannelTable, DistinctNamesGetDistinctIds) {
  const ChannelId a = intern_channel("ctt:distinct:a");
  const ChannelId b = intern_channel("ctt:distinct:b");
  EXPECT_NE(a, b);
}

TEST(ChannelTable, IdsAndNamesAreStableAcrossGrowth) {
  // Interning many more names must not invalidate earlier ids or the
  // name() strings they map back to.
  const ChannelId early = intern_channel("ctt:stable:early");
  const std::string early_name = ChannelTable::instance().name(early);
  std::vector<ChannelId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(intern_channel("ctt:stable:bulk:" + std::to_string(i)));
  }
  EXPECT_EQ(intern_channel("ctt:stable:early"), early);
  EXPECT_EQ(ChannelTable::instance().name(early), early_name);
  EXPECT_EQ(ChannelTable::instance().name(ids[0]), "ctt:stable:bulk:0");
  EXPECT_EQ(intern_channel("ctt:stable:bulk:4999"), ids.back());
}

TEST(ChannelTable, FindDoesNotIntern) {
  const std::size_t before = ChannelTable::instance().size();
  EXPECT_EQ(ChannelTable::instance().find("ctt:never-interned-name"), kInvalidChannelId);
  EXPECT_EQ(ChannelTable::instance().size(), before);
  const ChannelId id = intern_channel("ctt:find:present");
  EXPECT_EQ(ChannelTable::instance().find("ctt:find:present"), id);
}

TEST(ChannelTable, ControlFlagIsCachedAtInternTime) {
  const ChannelId ctl = intern_channel("@ctl:ctt:flag");
  const ChannelId data = intern_channel("ctt:flag:data");
  EXPECT_TRUE(ChannelTable::instance().is_control(ctl));
  EXPECT_FALSE(ChannelTable::instance().is_control(data));
  // Prefix must anchor at the start of the name.
  EXPECT_FALSE(ChannelTable::instance().is_control(intern_channel("x@ctl:ctt:mid")));
}

/// Records announced names.
class Recorder : public ChannelTable::Listener {
 public:
  void on_new_channel(ChannelId id, const std::string& name) override {
    seen.emplace_back(id, name);
  }
  std::vector<std::pair<ChannelId, std::string>> seen;
};

TEST(ChannelTable, QuietInternAnnouncesOnFirstLoudIntern) {
  ChannelTable& table = ChannelTable::instance();
  Recorder rec;
  table.add_listener(&rec);
  const std::size_t dir_before = table.directory().size();
  const ChannelId quiet = table.intern_quiet("ctt:quiet:a");
  EXPECT_FALSE(table.announced(quiet));
  EXPECT_EQ(table.find("ctt:quiet:a"), quiet);  // has an id already
  EXPECT_EQ(table.intern_quiet("ctt:quiet:a"), quiet);
  EXPECT_TRUE(rec.seen.empty());
  EXPECT_EQ(table.directory().size(), dir_before);

  const ChannelId loud = intern_channel("ctt:quiet:b");  // announced at once
  EXPECT_EQ(intern_channel("ctt:quiet:a"), quiet);        // announced now
  EXPECT_TRUE(table.announced(quiet));
  ASSERT_EQ(rec.seen.size(), 2u);
  EXPECT_EQ(rec.seen[0], (std::pair<ChannelId, std::string>{loud, "ctt:quiet:b"}));
  EXPECT_EQ(rec.seen[1], (std::pair<ChannelId, std::string>{quiet, "ctt:quiet:a"}));
  // The directory lists announcement order, not id order.
  ASSERT_EQ(table.directory().size(), dir_before + 2);
  EXPECT_EQ(table.directory()[dir_before], loud);
  EXPECT_EQ(table.directory()[dir_before + 1], quiet);
  intern_channel("ctt:quiet:a");  // no second announcement
  EXPECT_EQ(rec.seen.size(), 2u);
  table.remove_listener(&rec);
}

TEST(ChannelTable, NewThreadStartsFromAnEmptyTable) {
  // A thread's table is handed to a later thread when it exits; the later
  // thread must see it empty, exactly like a fresh table.
  auto probe = [](const char* name, std::size_t* size_before, ChannelId* id) {
    std::thread([=] {
      *size_before = ChannelTable::instance().size();
      *id = intern_channel(name);
    }).join();
  };
  std::size_t before1 = 1, before2 = 1;
  ChannelId id1 = kInvalidChannelId, id2 = kInvalidChannelId;
  probe("ctt:thread:first", &before1, &id1);
  probe("ctt:thread:second", &before2, &id2);
  EXPECT_EQ(before1, 0u);
  EXPECT_EQ(before2, 0u);
  EXPECT_EQ(id1, 0u);
  EXPECT_EQ(id2, 0u);
}

}  // namespace
}  // namespace dynamoth
