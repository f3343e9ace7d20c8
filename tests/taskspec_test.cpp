/// \file taskspec_test.cpp
/// The serializable task model: TaskSpec and ExperimentSpec round-trip
/// losslessly through JSON (field equality AND byte-identical
/// re-serialization), a round-tripped spec produces bit-identical
/// simulation results, manifests round-trip as a whole, and the TaskGrid
/// id/shard machinery is deterministic (shards partition the grid, their
/// union is the grid). Bad spec fields abort with a message naming them.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "harness/grid.hpp"
#include "harness/sweep.hpp"
#include "util/jsonio.hpp"

namespace hxsp {
namespace {

ExperimentSpec small_spec() {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 200;
  s.measure = 400;
  s.seed = 7;
  return s;
}

/// A spec with every field moved off its default, so a codec that drops
/// or mixes up any field fails the round trip.
ExperimentSpec exotic_spec() {
  ExperimentSpec s;
  s.sides = {3, 5, 7};
  s.servers_per_switch = 9;
  s.mechanism = "omnisp@rung";
  s.pattern = "rpn";
  s.sim.packet_length = 24;
  s.sim.input_buffer_packets = 5;
  s.sim.output_buffer_packets = 3;
  s.sim.link_latency = 2;
  s.sim.xbar_latency = 3;
  s.sim.xbar_speedup = 4;
  s.sim.num_vcs = 6;
  s.sim.server_queue_packets = 11;
  s.sim.watchdog_cycles = 123456;
  s.fault_links = {1, 4, 9, 16};
  s.escape_root = 42;
  s.escape_strict_phase = false;
  s.escape_shortcuts = false;
  s.escape_penalties = {1, 2, 3, 4, 5};
  s.warmup = 777;
  s.measure = 888;
  s.seed = 0xDEADBEEFCAFEBABEull;  // exercises full u64 range
  return s;
}

// ---------------------------------------------------------------------------
// jsonio basics (the substrate both codecs stand on).
// ---------------------------------------------------------------------------

TEST(JsonIo, ParsesNestedValues) {
  const JsonValue v = JsonValue::parse(
      "{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\\\"y\\n\"},\"d\":true,"
      "\"e\":false,\"f\":null,\"g\":18446744073709551615}");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.at("a").array().size(), 3u);
  EXPECT_EQ(v.at("a").array()[0].as_i64(), 1);
  EXPECT_EQ(v.at("a").array()[1].as_double(), 2.5);
  EXPECT_EQ(v.at("a").array()[2].as_int(), -3);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x\"y\n");
  EXPECT_TRUE(v.at("d").as_bool());
  EXPECT_FALSE(v.at("e").as_bool());
  EXPECT_EQ(v.at("f").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(v.at("g").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonIo, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("quote\" back\\ newline\n");
  w.key("d").value(0.1);  // not exactly representable
  w.key("n").begin_array().value(1).value(2).end_array();
  w.key("o").begin_object().key("b").value(true).end_object();
  w.end_object();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.at("s").as_string(), "quote\" back\\ newline\n");
  EXPECT_EQ(v.at("d").as_double(), 0.1);
  EXPECT_EQ(v.at("n").array().size(), 2u);
  EXPECT_TRUE(v.at("o").at("b").as_bool());
}

// ---------------------------------------------------------------------------
// ExperimentSpec codec.
// ---------------------------------------------------------------------------

TEST(SpecCodec, DefaultSpecRoundTrips) {
  const ExperimentSpec s;
  const ExperimentSpec back = spec_from_json_text(spec_to_json(s));
  EXPECT_EQ(back, s);
  EXPECT_EQ(spec_to_json(back), spec_to_json(s));  // byte-stable
}

TEST(SpecCodec, ExoticSpecRoundTrips) {
  const ExperimentSpec s = exotic_spec();
  const ExperimentSpec back = spec_from_json_text(spec_to_json(s));
  EXPECT_EQ(back, s);
  EXPECT_EQ(back.seed, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(back.fault_links, (std::vector<LinkId>{1, 4, 9, 16}));
  EXPECT_EQ(spec_to_json(back), spec_to_json(s));
}

TEST(SpecCodec, ResolvedServersPerSwitch) {
  ExperimentSpec s = small_spec();
  EXPECT_EQ(s.resolved_servers_per_switch(), 2);
  s.servers_per_switch = -1;
  EXPECT_EQ(s.resolved_servers_per_switch(), s.sides[0]);
}

// ---------------------------------------------------------------------------
// TaskSpec codec, every kind.
// ---------------------------------------------------------------------------

TEST(TaskSpecCodec, RateTaskRoundTrips) {
  TaskSpec t = TaskSpec::rate(exotic_spec(), 0.73);
  t.id = make_task_id("fig99", 12);
  t.label = "a label, with commas";
  t.extra = "k=v;q=\"r\"";
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.to_json(), t.to_json());
  EXPECT_EQ(back.driver(), "fig99");
}

TEST(TaskSpecCodec, CompletionTaskRoundTrips) {
  TaskSpec t = TaskSpec::completion(small_spec(), 123, 456, 789000);
  t.id = make_task_id("fig10", 1);
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.kind, TaskKind::kCompletion);
  EXPECT_EQ(back.packets_per_server, 123);
  EXPECT_EQ(back.bucket_width, 456);
  EXPECT_EQ(back.max_cycles, 789000);
}

TEST(TaskSpecCodec, DynamicTaskRoundTrips) {
  TaskSpec t = TaskSpec::dynamic_faults(small_spec(), 0.6,
                                        {{500, 3}, {900, 17}});
  t.id = make_task_id("ext", 0);
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  EXPECT_EQ(back, t);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[1].at, 900);
  EXPECT_EQ(back.events[1].link, 17);
}

TEST(TaskSpecCodec, KindNamesRoundTrip) {
  for (TaskKind k :
       {TaskKind::kRate, TaskKind::kCompletion, TaskKind::kDynamic})
    EXPECT_EQ(task_kind_from_name(task_kind_name(k)), k);
}

TEST(TaskSpecCodec, ManifestRoundTrips) {
  TaskGrid grid("mixed");
  grid.add(TaskSpec::rate(small_spec(), 0.5));
  grid.add(TaskSpec::completion(small_spec(), 8, 250, 100000));
  grid.add(TaskSpec::dynamic_faults(small_spec(), 0.7, {{400, 2}}));
  const std::string manifest = grid.manifest_json();
  const std::vector<TaskSpec> back = manifest_from_json(manifest);
  ASSERT_EQ(back.size(), grid.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "task " << i);
    EXPECT_EQ(back[i], grid[i]);
  }
  EXPECT_EQ(manifest_to_json(back), manifest);
}

// ---------------------------------------------------------------------------
// spec -> JSON -> spec -> identical results: the acceptance criterion.
// ---------------------------------------------------------------------------

TEST(TaskSpecCodec, RoundTrippedTaskRunsBitIdentically) {
  TaskSpec t = TaskSpec::rate(small_spec(), 0.8);
  const TaskSpec back = TaskSpec::from_json_text(t.to_json());
  const ResultRow a = std::get<ResultRow>(run_task(t));
  const ResultRow b = std::get<ResultRow>(run_task(back));
  EXPECT_EQ(a.mechanism, b.mechanism);
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.jain, b.jain);
  EXPECT_EQ(a.escape_frac, b.escape_frac);
  EXPECT_EQ(a.forced_frac, b.forced_frac);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.packets, b.packets);
}

// ---------------------------------------------------------------------------
// Spec boundary: one-field edits of an emitted task that once crashed with
// a signal or ran to a silently wrong row must abort naming the field.
// ---------------------------------------------------------------------------

/// \p text with \p from (which must occur exactly once) replaced by \p to.
std::string edit_once(std::string text, const std::string& from,
                      const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos || text.find(from, at + 1) != std::string::npos) {
    ADD_FAILURE() << "'" << from << "' does not occur exactly once in " << text;
    return text;
  }
  return text.replace(at, from.size(), to);
}

/// The JSON of an emitted task (by default a rate task) with the
/// serialized text \p from (which must occur exactly once) replaced by
/// \p to.
std::string edited_task_json(
    const std::string& from, const std::string& to,
    const TaskSpec& task = TaskSpec::rate(small_spec(), 0.5)) {
  return edit_once(task.to_json(), from, to);
}

TEST(SpecBoundaryDeathTest, ZeroXbarSpeedupNamesField) {
  const std::string text =
      edited_task_json("\"xbar_speedup\":2", "\"xbar_speedup\":0");
  EXPECT_DEATH(run_task(TaskSpec::from_json_text(text)), "sim.xbar_speedup");
}

TEST(SpecBoundaryDeathTest, ZeroVcsNamesField) {
  const std::string text = edited_task_json("\"num_vcs\":4", "\"num_vcs\":0");
  EXPECT_DEATH(run_task(TaskSpec::from_json_text(text)), "sim.num_vcs");
}

TEST(SpecBoundaryDeathTest, OutOfRangeFaultLinkNamesField) {
  const std::string text =
      edited_task_json("\"fault_links\":[]", "\"fault_links\":[999999]");
  EXPECT_DEATH(run_task(TaskSpec::from_json_text(text)),
               "fault_links: link id 999999 out of range");
}

TEST(SpecBoundaryDeathTest, OutOfRangeDynamicFaultLinkNamesField) {
  const std::string text = edited_task_json(
      "\"link\":3", "\"link\":999999",
      TaskSpec::dynamic_faults(small_spec(), 0.5, {{300, 3}}));
  EXPECT_DEATH(run_task(TaskSpec::from_json_text(text)),
               "events\\[\\]\\.link: link id 999999 out of range, the "
               "topology has 48 links");
}

/// One row of the decode-time boundary table: text edits applied to an
/// emitted rate task (one field each, two for a field pair) and the
/// field-naming abort they must produce.
struct SpecEdit {
  std::vector<std::pair<std::string, std::string>> edits;
  const char* message; ///< regex matched against the abort
};

std::string apply_edits(const SpecEdit& row) {
  std::string text = TaskSpec::rate(small_spec(), 0.5).to_json();
  for (const auto& [from, to] : row.edits) text = edit_once(text, from, to);
  return text;
}

TEST(SpecBoundaryDeathTest, OneFieldEditsNameTheField) {
  const char* const kWheel =
      "sim\\.link_latency \\+ sim\\.packet_length must be in \\[2, 64\\]";
  const std::vector<SpecEdit> table = {
      // Internal checks far from the field once caught these.
      {{{"\"packet_length\":16", "\"packet_length\":0"}},
       "sim\\.packet_length must be in \\[1, 63\\]"},
      {{{"\"sides\":[4,4]", "\"sides\":[1,8]"}}, "sides must be non-empty"},
      {{{"\"input_buffer_packets\":8", "\"input_buffer_packets\":0"}},
       "sim\\.input_buffer_packets must be >= 1"},
      {{{"\"output_buffer_packets\":4", "\"output_buffer_packets\":0"}},
       "sim\\.output_buffer_packets must be >= 1"},
      {{{"\"server_queue_packets\":8", "\"server_queue_packets\":0"}},
       "sim\\.server_queue_packets must be >= 1"},
      {{{"\"telemetry_window\":0", "\"telemetry_window\":-5"}},
       "sim\\.telemetry_window must be >= 0"},
      {{{"\"trace_sample\":0", "\"trace_sample\":-1"}},
       "sim\\.trace_sample must be >= 0"},
      {{{"\"offered\":0.5", "\"offered\":-1"}}, "offered must be >= 0"},
      // Once an abort inside Server, after the network was built.
      {{{"\"offered\":0.5", "\"offered\":16.5"}},
       "offered must be <= sim\\.packet_length"},
      // Once an unnamed check in the EscapeUpDown constructor.
      {{{"\"escape_root\":0", "\"escape_root\":16"}},
       "escape_root: switch id 16 out of range, the topology has 16 switches"},
      {{{"\"escape_root\":0", "\"escape_root\":-1"}},
       "escape_root: switch id -1 out of range"},
      {{{"\"measure\":400", "\"measure\":0"}}, "measure must be >= 1"},
      // Event delays beyond the 64-cycle wheel once wrapped around it in
      // Release builds and produced a silently wrong row.
      {{{"\"link_latency\":1", "\"link_latency\":100"}}, kWheel},
      {{{"\"link_latency\":1", "\"link_latency\":49"}}, kWheel},
      {{{"\"link_latency\":1", "\"link_latency\":-1"}},
       "sim\\.link_latency must be >= 0"},
      {{{"\"packet_length\":16", "\"packet_length\":80"}},
       "sim\\.packet_length must be in \\[1, 63\\]"},
      {{{"\"link_latency\":1", "\"link_latency\":0"},
        {"\"packet_length\":16", "\"packet_length\":64"}},
       "sim\\.packet_length must be in \\[1, 63\\]"},
      {{{"\"link_latency\":1", "\"link_latency\":0"},
        {"\"packet_length\":16", "\"packet_length\":1"}},
       kWheel},
      // Integer fields once narrowed silently: 2^32 + 4 VCs ran as 4, and
      // strtoll read 4.5 as 4.
      {{{"\"num_vcs\":4", "\"num_vcs\":4294967300"}},
       "JSON integer 4294967300 does not fit in 32 bits"},
      {{{"\"num_vcs\":4", "\"num_vcs\":4.5"}},
       "JSON number 4\\.5 is not an integer"},
      {{{"\"seed\":7", "\"seed\":-7"}}, "JSON integer -7 is negative"},
      {{{"\"warmup\":200", "\"warmup\":99999999999999999999"}},
       "JSON integer 99999999999999999999 does not fit in 64 bits"},
      // Every term of the allocator's Q + P score is bounded, so the sum
      // cannot overflow int: penalties once decoded up to INT_MAX.
      {{{"\"up\":112", "\"up\":2147483000"}},
       "escape_penalties\\.up must be in \\[0, 2\\^20\\]"},
      {{{"\"down\":96", "\"down\":-1"}},
       "escape_penalties\\.down must be in \\[0, 2\\^20\\]"},
      {{{"\"red1\":80", "\"red1\":1048577"}},
       "escape_penalties\\.red1 must be in \\[0, 2\\^20\\]"},
      {{{"\"red2\":64", "\"red2\":-64"}},
       "escape_penalties\\.red2 must be in \\[0, 2\\^20\\]"},
      {{{"\"red3\":48", "\"red3\":2000000"}},
       "escape_penalties\\.red3 must be in \\[0, 2\\^20\\]"},
      {{{"\"input_buffer_packets\":8", "\"input_buffer_packets\":4097"}},
       "sim\\.input_buffer_packets must be <= 4096"},
      {{{"\"output_buffer_packets\":4", "\"output_buffer_packets\":4097"}},
       "sim\\.output_buffer_packets must be <= 4096"},
  };
  for (const SpecEdit& row : table) {
    const std::string text = apply_edits(row);
    EXPECT_DEATH(run_task(TaskSpec::from_json_text(text)), row.message)
        << row.edits.front().second;
  }
}

TEST(SpecBoundary, WheelHorizonEdgesRun) {
  // The largest and smallest delays the wheel holds: these must decode
  // and run (Debug builds would trip the per-event horizon DCHECK).
  const std::vector<SpecEdit> table = {
      {{{"\"link_latency\":1", "\"link_latency\":48"}}, ""},
      {{{"\"link_latency\":1", "\"link_latency\":0"},
        {"\"packet_length\":16", "\"packet_length\":63"}},
       ""},
      {{{"\"packet_length\":16", "\"packet_length\":1"}}, ""},
  };
  for (const SpecEdit& row : table) {
    const TaskResult r = run_task(TaskSpec::from_json_text(apply_edits(row)));
    const ResultRow* row_out = task_result_row(r);
    ASSERT_NE(row_out, nullptr);
    EXPECT_GT(row_out->packets, 0) << row.edits.back().second;
  }
}

// ---------------------------------------------------------------------------
// TaskGrid ids and sharding.
// ---------------------------------------------------------------------------

TEST(TaskGrid, AssignsStableIds) {
  TaskGrid grid("fig06_random_faults");
  for (int i = 0; i < 3; ++i) grid.add(TaskSpec::rate(small_spec(), 1.0));
  EXPECT_EQ(grid[0].id, "fig06_random_faults/000000");
  EXPECT_EQ(grid[2].id, "fig06_random_faults/000002");
  EXPECT_EQ(grid[2].driver(), "fig06_random_faults");
}

TEST(TaskGrid, ShardsPartitionTheGrid) {
  TaskGrid grid("d");
  for (int i = 0; i < 11; ++i) grid.add(TaskSpec::rate(small_spec(), 0.1 * i));

  for (int count : {1, 2, 3, 5}) {
    SCOPED_TRACE(testing::Message() << "count=" << count);
    std::vector<TaskSpec> seen;
    for (int index = 0; index < count; ++index) {
      const auto part = grid.shard(ShardSpec{index, count});
      for (const TaskSpec& t : part) seen.push_back(t);
    }
    // Union == grid (as a set: sort the union by id, compare).
    ASSERT_EQ(seen.size(), grid.size());
    std::sort(seen.begin(), seen.end(),
              [](const TaskSpec& a, const TaskSpec& b) { return a.id < b.id; });
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], grid[i]);
  }
}

TEST(TaskGrid, ShardSpecParsesAndValidates) {
  const ShardSpec s = ShardSpec::parse("2/4");
  EXPECT_EQ(s.index, 2);
  EXPECT_EQ(s.count, 4);
  EXPECT_FALSE(s.is_full());
  EXPECT_TRUE(ShardSpec::parse("0/1").is_full());
  EXPECT_TRUE(s.covers(2));
  EXPECT_TRUE(s.covers(6));
  EXPECT_FALSE(s.covers(3));
  EXPECT_EQ(shard_indices(5, ShardSpec{1, 2}),
            (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(shard_indices(5, ShardSpec{0, 2}),
            (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_TRUE(shard_indices(0, ShardSpec{0, 2}).empty());
}

TEST(TaskGrid, ShardSpecRejectsMalformedInput) {
  // Trailing garbage must abort, not silently run the wrong slice of a
  // multi-host sweep.
  EXPECT_DEATH(ShardSpec::parse("1x/2"), "--shard");
  EXPECT_DEATH(ShardSpec::parse("1/2,"), "--shard");
  EXPECT_DEATH(ShardSpec::parse("2/2"), "out of range");
  EXPECT_DEATH(ShardSpec::parse("nonsense"), "--shard");
}

} // namespace
} // namespace hxsp
