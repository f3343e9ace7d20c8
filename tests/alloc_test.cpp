/// \file alloc_test.cpp
/// The allocator across engine revisions: golden result rows of saturated,
/// faulted cells that an allocator rewrite must leave byte-identical, and
/// the deterministic allocation activity counters (Router::alloc_counters)
/// — exact across step-thread counts and auditing, and bounding the scans
/// a saturated faulted cell spends per grant (event-driven head parking).

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "harness/sweep.hpp"
#include "metrics/resultsink.hpp"
#include "topology/faults.hpp"
#include "util/thread_pool.hpp"

namespace hxsp {

// gtest prints AllocCounters through ADL, so this lives in hxsp proper.
void PrintTo(const AllocCounters& c, std::ostream* os) {
  *os << "{scans=" << c.scans << " fruitless=" << c.fruitless
      << " requests=" << c.requests << " grants=" << c.grants
      << " cand_evals=" << c.cand_evals << " wakes=" << c.wakes << "}";
}

namespace {

/// Small saturated faulted cell: 4x4 HyperX, 4 servers/switch, 4 VCs,
/// four failed links, offered 1.0.
TaskSpec golden_cell(const char* mechanism, const char* pattern) {
  ExperimentSpec s;
  s.sides = {4, 4};
  s.servers_per_switch = 4;
  s.mechanism = mechanism;
  s.pattern = pattern;
  s.sim.num_vcs = 4;
  s.fault_links = {0, 9, 21, 40};
  s.warmup = 500;
  s.measure = 1000;
  s.seed = 3;
  return TaskSpec::rate(s, 1.0);
}

// Recorded on the polling allocator (credit-blocked heads rescanned every
// cycle) before heads parked on waiter sets. Parking only skips scans that
// could not post a request, so these rows must not move; the PolSP
// saturation fix on the roadmap will move them deliberately. The cells
// cover every shape of candidate VC set: OmniSP's default Free policy
// (a 3-VC run per port), PolSP's Auto (one rung here), and the explicit
// Monotone and Free overrides (runs starting mid-range, and Free under a
// Polarized base), the latter two recorded on the per-VC candidate lists
// before candidates were grouped by port.
TEST(AllocGolden, SaturatedFaultedCellsPinned) {
  const struct {
    const char* mechanism;
    const char* pattern;
    const char* row;
  } cells[] = {
      {"polsp", "uniform",
       ",,rate,,PolSP,uniform,1,3,0.78525,0.54949999999999999,"
       "445.59781619654228,0.98534577604556173,0.15857194635737587,0,"
       "952,1000,2198,0,0,0,0,0,,\n"},
      {"polsp", "dcr",
       ",,rate,,PolSP,dcr,1,3,0.61275000000000002,0.36575000000000002,"
       "585.88516746411483,0.89456337737898961,0.11118116855821773,0,"
       "1144,1000,1463,0,0,0,0,0,,\n"},
      {"omnisp", "uniform",
       ",,rate,,OmniSP,uniform,1,3,0.93925000000000003,"
       "0.48849999999999999,428.40634595701124,0.99377566980881271,"
       "0.17142857142857143,0.0033928571428571428,1032,1000,1954,0,0,0,"
       "0,0,,\n"},
      {"omnisp", "dcr",
       ",,rate,,OmniSP,dcr,1,3,0.89024999999999999,0.27050000000000002,"
       "599.27634011090572,0.98507134680494579,0.14439503861455652,"
       "0.0039784694593962087,1184,1000,1082,0,0,0,0,0,,\n"},
      {"omnisp@monotone", "uniform",
       ",,rate,,OmniSP,uniform,1,3,0.93225000000000002,0.42299999999999999,"
       "403.13356973995269,0.99036185200125804,0.16407599309153714,"
       "0.0023028209556706968,992,1000,1692,0,0,0,0,0,,\n"},
      {"polsp@free", "uniform",
       ",,rate,,PolSP,uniform,1,3,0.94474999999999998,0.38150000000000001,"
       "399.47640891218873,0.99202929176058441,0.17325916769674496,0,1032,"
       "1000,1526,0,0,0,0,0,,\n"},
  };
  for (const auto& c : cells) {
    SCOPED_TRACE(std::string(c.mechanism) + "/" + c.pattern);
    const TaskSpec task = golden_cell(c.mechanism, c.pattern);
    EXPECT_EQ(ResultSink::csv_line(make_record(task, run_task(task))), c.row);
  }
}

/// Steps \p s at offered \p load for its warmup + measure cycles on a
/// directly built Network (stepped on \p pool when non-null) and returns
/// the allocator counters.
AllocCounters run_counters(const ExperimentSpec& s, double load,
                           ThreadPool* pool) {
  Experiment e(s);
  Network net(e.context(), e.mechanism(), e.traffic(), s.sim,
              s.resolved_servers_per_switch(), s.seed);
  net.set_step_pool(pool);
  net.set_offered_load(load);
  net.run_cycles(s.warmup + s.measure);
  return net.alloc_counters();
}

TEST(AllocCounters, IdenticalAcrossStepThreadsAndAudit) {
  ExperimentSpec s = golden_cell("polsp", "uniform").spec;
  const AllocCounters serial = run_counters(s, 1.0, nullptr);
  EXPECT_GT(serial.grants, 0);
  EXPECT_GT(serial.fruitless, 0);
  EXPECT_GT(serial.wakes, 0);
  EXPECT_EQ(serial.scans, serial.fruitless + serial.requests);
  EXPECT_GE(serial.requests, serial.grants);
  EXPECT_GE(serial.cand_evals, serial.scans);
  ThreadPool pool(2);
  EXPECT_EQ(run_counters(s, 1.0, &pool), serial);
  s.sim.audit_interval = 1;
  EXPECT_EQ(run_counters(s, 1.0, nullptr), serial);
  EXPECT_EQ(run_counters(s, 1.0, &pool), serial);
}

// The OmniSP golden cell's counters, pinned exactly: its Free policy gives
// every routing port a 3-VC entry, so cand_evals (which counts (port, VC)
// pairs, not entries) is the counter a grouping slip would move first.
// Recorded on the per-VC candidate lists. The audited rerun checks parking
// exactness every cycle on those multi-VC entries (a fruitless scan must
// join the waiter set of each blocked VC of an entry, not just one).
TEST(AllocCounters, OmniSpGoldenCellPinned) {
  ExperimentSpec s = golden_cell("omnisp", "uniform").spec;
  AllocCounters want;
  want.scans = 56972;
  want.fruitless = 24189;
  want.requests = 32783;
  want.grants = 11891;
  want.cand_evals = 626187;
  want.wakes = 35371;
  EXPECT_EQ(run_counters(s, 1.0, nullptr), want);
  s.sim.audit_interval = 1;
  EXPECT_EQ(run_counters(s, 1.0, nullptr), want);
}

// Head scans per grant on one saturated faulted 8x8 PolSP cell (the fig06
// fabric at the middle fault step of its grid). Polling credit-blocked
// heads every cycle spent 5.94 scans per grant here (684,191 scans for
// 115,270 grants); parking them on waiter sets spends 2.58 (297,072 for
// the same grants). The bound sits between the two, so a return to
// polling fails.
TEST(AllocCounters, ScansPerGrantBoundedOnSaturatedFaultedCell) {
  ExperimentSpec s;
  s.sides = {8, 8};
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.warmup = 500;
  s.measure = 1000;
  s.seed = 1;
  HyperX scratch(s.sides, s.resolved_servers_per_switch());
  Rng frng(s.seed + 1000);
  const auto seq = random_fault_sequence(scratch.graph(), frng);
  s.fault_links.assign(seq.begin(), seq.begin() + 5);
  const AllocCounters c = run_counters(s, 1.0, nullptr);
  EXPECT_EQ(c.grants, 115270);
  EXPECT_LT(static_cast<double>(c.scans), 4.0 * static_cast<double>(c.grants));
}

} // namespace
} // namespace hxsp
