/// \file linkstats_test.cpp
/// Tests for the hot-link ranking of Experiment::run_load_hotspots (per-
/// link phits from SimMetrics, windowed by difference), including the
/// physical invariants it must respect (loads bounded by link bandwidth,
/// warmup traffic excluded) and the root-hotspot signature under Star
/// faults that the paper's §6 analysis relies on.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace hxsp {
namespace {

TEST(LinkStats, SingleFlowSaturatesItsLink) {
  // K2 with one server per switch under shift traffic: the duplex link
  // carries ~1 phit/cycle in each direction at offered 1.0.
  ExperimentSpec s;
  s.sides = {2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.pattern = "shift";
  s.sim.num_vcs = 2;
  s.warmup = 500;
  s.measure = 2000;
  Experiment e(s);
  auto [row, hot] = e.run_load_hotspots(1.0, 4);
  ASSERT_EQ(hot.size(), 2u); // both directions of the single link
  for (const auto& h : hot) {
    EXPECT_GT(h.load, 0.9);
    EXPECT_LE(h.load, 1.0 + 1e-9);
  }
  EXPECT_GT(row.accepted, 0.9);
}

TEST(LinkStats, LoadsNeverExceedLinkBandwidth) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 4;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 1000;
  s.measure = 2000;
  Experiment e(s);
  auto [row, hot] = e.run_load_hotspots(1.0, 64);
  (void)row;
  ASSERT_FALSE(hot.empty());
  for (const auto& h : hot) EXPECT_LE(h.load, 1.0 + 1e-9);
  // Entries are sorted hottest first.
  for (std::size_t i = 1; i < hot.size(); ++i)
    EXPECT_GE(hot[i - 1].load, hot[i].load);
}

TEST(LinkStats, HotspotConcentratesAroundStarRoot) {
  // Star fault: the 3 surviving root links must rank among the hottest in
  // the network (the paper's in-cast analysis for Fig 10).
  ExperimentSpec s;
  s.sides = {4, 4, 4};
  s.servers_per_switch = 4;
  s.mechanism = "omnisp";
  s.pattern = "rpn";
  s.sim.num_vcs = 4;
  s.warmup = 1000;
  s.measure = 3000;
  HyperX scratch(s.sides, 4);
  const SwitchId center = scratch.switch_at({2, 2, 2});
  const ShapeFault star = star_fault(scratch, center, 3);
  s.fault_links = star.links;
  s.escape_root = center;
  Experiment e(s);
  auto [row, hot] = e.run_load_hotspots(1.0, 1 << 20);
  (void)row;
  ASSERT_FALSE(hot.empty());
  // The in-cast signature: at least two of the root's three surviving
  // links run saturated (the whole neighbourhood funnels through them).
  int saturated_root_links = 0;
  for (const auto& h : hot)
    if ((h.from == center || h.to == center) && h.load >= 0.9)
      ++saturated_root_links;
  EXPECT_GE(saturated_root_links, 2);
}

TEST(LinkStats, WindowResetDropsWarmupTraffic) {
  // Per-link phits are cumulative from cycle 0 and the ranking is the
  // difference against a snapshot taken when warmup ends. A warmup 20x
  // longer than the window would push every saturated link's load to ~21
  // if any warmup traffic leaked into it; within the window the link
  // runs near saturation, so the loads stay in (0.5, 1].
  ExperimentSpec s;
  s.sides = {2};
  s.servers_per_switch = 1;
  s.mechanism = "minimal";
  s.pattern = "shift";
  s.sim.num_vcs = 2;
  s.warmup = 40000;
  s.measure = 2000;
  Experiment e(s);
  auto [row, hot] = e.run_load_hotspots(1.0, 4);
  ASSERT_EQ(hot.size(), 2u);
  for (const auto& h : hot) {
    EXPECT_GT(h.load, 0.5);
    EXPECT_LE(h.load, 1.0 + 1e-9);
  }
  EXPECT_EQ(row.cycles, 2000);
}

} // namespace
} // namespace hxsp
