/// \file observation_golden_test.cpp
/// Cross-commit golden for the whole observation surface: the telemetry
/// CSV rows, the sampled trace JSONL, the persisted result lines and the
/// hot-link ranking of three pinned cells (a faulted rate task, a
/// dynamic-fault task and a workload task).
///
/// The telemetry_test cases compare telemetry on vs off and thread counts
/// within one build, so a change that moves both sides at once passes
/// them. These digests were recorded once and must not move when the
/// instruments are refactored: any drift in a counter, a window boundary,
/// a percentile or a link ranking changes a 64-bit FNV-1a here.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/taskspec.hpp"
#include "metrics/resultsink.hpp"
#include "telemetry/capture.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

/// 64-bit FNV-1a over the bytes of \p s.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// Faulted 4x4 PolSP fabric with telemetry windows and packet tracing on.
/// Returns the canonical fault sequence in \p seq: its first four links
/// are static faults, the next ones feed the dynamic cell.
ExperimentSpec observed_spec(std::vector<LinkId>& seq) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 2;
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.sim.telemetry_window = 64;
  s.sim.trace_sample = 4;
  s.warmup = 300;
  s.measure = 600;
  s.seed = 11;
  HyperX scratch(s.sides, s.servers_per_switch);
  Rng frng(s.seed + 1000);
  seq = random_fault_sequence(scratch.graph(), frng);
  s.fault_links.assign(seq.begin(), seq.begin() + 4);
  return s;
}

struct CellDigests {
  std::uint64_t telemetry_csv;
  std::uint64_t trace_jsonl;
  std::uint64_t result_lines;
};

CellDigests digest_cell(const TaskSpec& task) {
  TelemetryCapture cap;
  const TaskResult result = run_task(task, 0, &cap);
  std::string lines;
  for (const ResultRecord& rec : make_records(task, result))
    lines += ResultSink::csv_line(rec);
  return {fnv1a(ResultSink::csv(make_telemetry_records(task, cap))),
          fnv1a(trace_jsonl({{task.id, &cap.hops}})), fnv1a(lines)};
}

void expect_digests(const TaskSpec& task, const CellDigests& want) {
  const CellDigests got = digest_cell(task);
  EXPECT_EQ(hex(got.telemetry_csv), hex(want.telemetry_csv)) << task.id;
  EXPECT_EQ(hex(got.trace_jsonl), hex(want.trace_jsonl)) << task.id;
  EXPECT_EQ(hex(got.result_lines), hex(want.result_lines)) << task.id;
}

TEST(ObservationGolden, RateCell) {
  std::vector<LinkId> seq;
  TaskSpec t = TaskSpec::rate(observed_spec(seq), 0.6);
  t.id = "observation_golden/000000";
  expect_digests(t, {0x8e3ca552182d5520ULL, 0x23c746184ebf6739ULL,
                     0xe0d44465cb9aeeddULL});
}

TEST(ObservationGolden, RateCellHotLinks) {
  std::vector<LinkId> seq;
  Experiment e(observed_spec(seq));
  const auto [row, hot] = e.run_load_hotspots(0.6, 8);
  ASSERT_EQ(hot.size(), 8u);
  std::string text;
  char buf[96];
  for (const auto& h : hot) {
    std::snprintf(buf, sizeof buf, "%d,%d,%d,%.17g\n", static_cast<int>(h.from),
                  static_cast<int>(h.port), static_cast<int>(h.to), h.load);
    text += buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g,%.17g\n", row.accepted,
                row.escape_frac);
  text += buf;
  EXPECT_EQ(hex(fnv1a(text)), hex(0x4b29a30268de338bULL)) << text;
}

TEST(ObservationGolden, DynamicFaultCell) {
  std::vector<LinkId> seq;
  const ExperimentSpec s = observed_spec(seq);
  TaskSpec t = TaskSpec::dynamic_faults(s, 0.7, {{400, seq[4]}, {700, seq[5]}});
  t.id = "observation_golden/000001";
  expect_digests(t, {0xaade870cfccc8689ULL, 0x5a1b62757b91fd30ULL,
                     0x89e252661757d61bULL});
}

TEST(ObservationGolden, WorkloadCell) {
  std::vector<LinkId> seq;
  WorkloadParams p;
  p.name = "alltoall";
  p.msg_packets = 2;
  TaskSpec t = TaskSpec::workload(observed_spec(seq), p, /*bucket_width=*/500,
                                  /*max_cycles=*/2000000);
  t.id = "observation_golden/000002";
  expect_digests(t, {0x339759a36aefa519ULL, 0x327e3f2d44d1b82dULL,
                     0xfdc0e8bef43a5336ULL});
}

} // namespace
} // namespace hxsp
