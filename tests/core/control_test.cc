#include "core/control.h"

#include <gtest/gtest.h>

namespace dynamoth::core {
namespace {

TEST(Control, ControlChannelDetection) {
  EXPECT_TRUE(is_control_channel(kDispatcherChannel));
  EXPECT_TRUE(is_control_channel("@ctl:c:42"));
  EXPECT_FALSE(is_control_channel("tile:1:2"));
  EXPECT_FALSE(is_control_channel(""));
  EXPECT_FALSE(is_control_channel("ctl:disp"));
  EXPECT_FALSE(is_control_channel("x@ctl:disp"));
}

TEST(Control, ClientControlChannelRoundTrip) {
  EXPECT_EQ(client_control_channel(7), "@ctl:c:7");
  EXPECT_EQ(client_control_channel(123456789), "@ctl:c:123456789");
  EXPECT_TRUE(is_control_channel(client_control_channel(1)));
}

TEST(Control, EntryUpdateWireSizeScalesWithServers) {
  EntryUpdateBody small;
  small.channel = "c";
  small.entry.servers = {1};
  EntryUpdateBody big;
  big.channel = "c";
  big.entry.servers = {1, 2, 3, 4};
  EXPECT_GT(big.wire_size(), small.wire_size());
}

// A plan update is the frozen plan itself, sent directly to each dispatcher.
TEST(Control, PlanUpdateWireSizeScalesWithPlan) {
  const std::size_t base = Plan{}.wire_size();

  Plan bigger;
  for (int i = 0; i < 50; ++i) {
    PlanEntry entry;
    entry.servers = {1, 2};
    bigger.set_entry("channel-" + std::to_string(i), entry);
  }
  EXPECT_GT(bigger.wire_size(), base + 50 * 10);
}

TEST(Control, LoadRatioComputation) {
  LoadReport report;
  report.measured_out_bytes_per_sec = 750e3;
  report.advertised_capacity = 1.5e6;
  EXPECT_DOUBLE_EQ(report.load_ratio(), 0.5);

  LoadReport zero_capacity;
  zero_capacity.measured_out_bytes_per_sec = 100;
  EXPECT_DOUBLE_EQ(zero_capacity.load_ratio(), 0.0);
}

TEST(Control, LlaReportWireSizeScalesWithChannels) {
  LoadReport small;
  LoadReport big;
  for (int i = 0; i < 20; ++i) big.channels["channel-" + std::to_string(i)] = {};
  EXPECT_GT(big.wire_size(), small.wire_size() + 20 * 40);
}

TEST(Control, DrainNoticeWireSize) {
  DrainNoticeBody body;
  body.channel = "some-channel";
  EXPECT_EQ(body.wire_size(), 16 + body.channel.size());
}

}  // namespace
}  // namespace dynamoth::core
