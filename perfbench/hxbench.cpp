/// \file hxbench.cpp
/// The measuring program of the repository benchmark (perfbench/run.py
/// builds and drives it). One invocation runs one named workload for one
/// seed and prints a single JSON object on its last stdout line: the
/// measured metrics, the correctness checks and the result digest.
///
/// Usage: hxbench --workload=fig06_grid|light_8x8|big_1m --seed=N
///                --seconds=S --trace=0|1 [--trace-out=FILE]
///
/// Untraced runs (--trace=0) give the end-to-end metrics: every simulated
/// task is built from its spec (Experiment + Network) and stepped with no
/// observer attached, timed from outside with a monotonic wall clock and
/// the process CPU clock. Every repetition rebuilds its network from the
/// seed, so repetitions replay identical simulated work, and every rate
/// is taken from the counts and the time of one and the same run. The
/// time of the correctness checks is excluded; teardown is included.
///
/// Traced runs (--trace=1) give the per-layer metrics. They first repeat
/// the untraced work, then run it again with the Experiment assembly
/// decomposed into its public parts (HyperX + apply_faults,
/// make_distance_provider, make_mechanism, EscapeUpDown, make_traffic,
/// Network, Network::run_cycles, Network::export_telemetry), each call
/// wrapped in a span recorded in memory, with Network::attach_phase_times
/// and the telemetry window on. Both are observation-only by the engine's
/// contract, which the run checks: the traced result digest must equal
/// the untraced one. The spans are written as Chrome-trace JSON
/// (--trace-out), which loads in Perfetto.
///
/// Correctness gate (every run): packet conservation per simulated task
/// (generated = consumed + in system + dropped), the engine invariant
/// auditor once per task after stepping, identical result digests across
/// repetitions, and — for the small workloads — equality with the
/// library's own run_task() on the first task. A watchdog or auditor
/// failure aborts the process; run.py counts that as a failed run.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "harness/experiment.hpp"
#include "harness/grid.hpp"
#include "harness/presets.hpp"
#include "harness/sweep.hpp"
#include "metrics/resultsink.hpp"
#include "telemetry/capture.hpp"
#include "topology/computed_distance.hpp"
#include "topology/faults.hpp"
#include "util/fileio.hpp"
#include "util/jsonio.hpp"
#include "util/options.hpp"
#include "util/thread_pool.hpp"

using namespace hxsp;

namespace {

// --- clocks ----------------------------------------------------------------

double mono_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// User + system CPU time of the whole process (every thread).
double process_cpu_s() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of the calling thread.
double thread_cpu_s() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  HXSP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- spans -----------------------------------------------------------------

/// One timed call into a layer. The name is "layer.what"; \p parent
/// indexes the enclosing span of the same log (-1: a root).
struct Span {
  const char* name = "";
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  /// Seconds of this span already attributed to sub-phases that are not
  /// spans themselves (the step phases of attach_phase_times).
  double attributed = 0.0;
};

/// In-memory span log of one thread of work: one per traced task, plus
/// one for the harness level on the calling thread. Disabled logs record
/// nothing and read no clock.
struct SpanLog {
  bool on = false;
  int task = -1;    ///< task index (-1: harness level)
  int thread = 0;   ///< small per-thread index for the Chrome trace
  std::vector<Span> spans;
  std::vector<int> open;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log != nullptr && log->on ? log : nullptr) {
    if (log_ == nullptr) return;
    Span s;
    s.name = name;
    s.parent = log_->open.empty() ? -1 : log_->open.back();
    idx_ = static_cast<int>(log_->spans.size());
    log_->spans.push_back(s);
    log_->open.push_back(idx_);
    log_->spans.back().t0 = mono_now();
  }
  ~Scope() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<std::size_t>(idx_)].t1 = mono_now();
    log_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Credits \p seconds of this span to non-span sub-phases.
  void attribute(double seconds) {
    if (log_ != nullptr)
      log_->spans[static_cast<std::size_t>(idx_)].attributed += seconds;
  }

 private:
  SpanLog* log_;
  int idx_ = -1;
};

/// Small stable index of the calling thread (Chrome-trace tid).
int thread_index() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  const auto it = ids.find(std::this_thread::get_id());
  if (it != ids.end()) return it->second;
  const int id = static_cast<int>(ids.size());
  ids.emplace(std::this_thread::get_id(), id);
  return id;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Self seconds per span name: duration minus the time covered by its
/// child spans and its attributed sub-phases. \p acc accumulates.
void add_self_times(const SpanLog& log, std::map<std::string, double>& acc) {
  std::vector<double> child(log.spans.size(), 0.0);
  for (const Span& s : log.spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    acc[s.name] += (s.t1 - s.t0) - child[i] - s.attributed;
  }
}

// --- one simulated task ------------------------------------------------------

/// Everything measured and checked for one simulation of one task.
struct TaskRun {
  std::string record;  ///< the task's ResultSink CSV line
  ResultRow row;
  Cycle p50_latency = 0;
  std::int64_t generated = 0, consumed = 0, in_system = 0, dropped = 0;
  bool conserved = false;
  Cycle cycles = 0;       ///< simulated cycles stepped
  double setup_s = 0.0;   ///< spec -> first simulated cycle
  double step_s = 0.0;    ///< stepping wall time
  double wall_s = 0.0;    ///< setup + stepping + teardown
  double checks_cpu_s = 0.0;  ///< CPU of the untimed epilogue (its thread)
  // Traced runs only.
  double events_s = 0.0, generation_s = 0.0, alloc_s = 0.0, link_s = 0.0;
  TelemetryCapture cap;
  SpanLog log;

  /// Digest input: the persisted row plus the conservation counts and
  /// the median latency, which the row does not carry.
  std::string digest_text() const {
    return record + "|" + std::to_string(generated) + "," +
           std::to_string(consumed) + "," + std::to_string(in_system) + "," +
           std::to_string(dropped) + "," + std::to_string(p50_latency) + "\n";
  }
};

/// The network seed Experiment::run_load derives from the spec.
std::uint64_t network_seed(const ExperimentSpec& spec) {
  return Rng(spec.seed).fork(0x10AD).next_u64();
}

void step_task(Network& net, const TaskSpec& task, SpanLog* log,
               StepPhaseTimes* pt) {
  net.set_offered_load(task.offered);
  const auto run = [&](Cycle n) {
    Scope s(log, "sim.run_cycles");
    const double before = pt != nullptr ? pt->total() : 0.0;
    net.run_cycles(n);
    if (pt != nullptr) s.attribute(pt->total() - before);
  };
  run(task.spec.warmup);
  net.begin_window();
  run(task.spec.measure);
  net.end_window();
}

/// Untimed epilogue: result row, conservation ledger, invariant audit.
void finish_task(Network& net, const std::string& mechanism,
                 const TaskSpec& task, TaskRun& r) {
  const double cpu0 = thread_cpu_s();
  r.row.mechanism = mechanism;
  r.row.pattern = task.spec.pattern;
  r.row.offered = task.offered;
  r.row.from_metrics(net.metrics());
  r.record = ResultSink::csv_line(make_record(task, TaskResult(r.row)));
  r.p50_latency = net.metrics().latency_histogram().percentile(0.5);
  r.generated = net.metrics().total_generated_packets();
  r.consumed = net.metrics().total_consumed_packets();
  r.in_system = net.packets_in_system();
  r.dropped = net.dropped_packets();
  r.conserved = r.generated == r.consumed + r.in_system + r.dropped;
  r.cycles = net.now();
  net.run_audit();
  r.checks_cpu_s = thread_cpu_s() - cpu0;
}

/// Runs \p task the way Experiment::run_load does, with no observer
/// attached: the end-to-end measurement path.
TaskRun run_untraced(const TaskSpec& task, ThreadPool* pool) {
  TaskRun r;
  const double t0 = mono_now();
  double checks_s = 0.0;
  {
    Experiment e(task.spec);
    Network net(e.context(), e.mechanism(), e.traffic(), task.spec.sim,
                task.spec.resolved_servers_per_switch(),
                network_seed(task.spec));
    const double t1 = mono_now();
    net.set_step_pool(pool);
    step_task(net, task, nullptr, nullptr);
    const double t2 = mono_now();
    r.setup_s = t1 - t0;
    r.step_s = t2 - t1;
    finish_task(net, e.mechanism().name(), task, r);
    checks_s = mono_now() - t2;
  }
  // The checks are not part of the measured run; teardown is.
  r.wall_s = mono_now() - t0 - checks_s;
  return r;
}

/// Runs \p task with the Experiment assembly decomposed into its public
/// parts, every call wrapped in a span, phase times attached and the
/// telemetry window set to \p window: the per-layer measurement path.
TaskRun run_traced(const TaskSpec& task, ThreadPool* pool, Cycle window,
                   int task_index) {
  TaskRun r;
  r.log.on = true;
  r.log.task = task_index;
  r.log.thread = thread_index();
  SpanLog* log = &r.log;
  ExperimentSpec spec = task.spec;
  spec.sim.telemetry_window = window;
  const int sps = spec.resolved_servers_per_switch();
  StepPhaseTimes pt(&mono_now);

  const double t0 = mono_now();
  {
    Scope task_span(log, "harness.task");
    std::unique_ptr<HyperX> hx;
    std::unique_ptr<DistanceProvider> dist;
    std::unique_ptr<RoutingMechanism> mech;
    std::unique_ptr<EscapeUpDown> escape;
    std::unique_ptr<TrafficPattern> traffic;
    NetworkContext ctx;
    {
      Scope s(log, "harness.experiment");
      {
        Scope t(log, "topology.build");
        hx = std::make_unique<HyperX>(spec.sides, sps);
        apply_faults(hx->graph(), spec.fault_links);
        HXSP_CHECK_MSG(hx->graph().connected(),
                       "fault set disconnects the network");
      }
      {
        Scope t(log, "topology.distance_build");
        dist = make_distance_provider(*hx);
      }
      {
        Scope t(log, "routing.mechanism_build");
        mech = make_mechanism(spec.mechanism);
      }
      if (mech->needs_escape()) {
        Scope t(log, "core.escape_build");
        EscapeUpDown::Config ecfg;
        ecfg.root = spec.escape_root;
        ecfg.strict_phase = spec.escape_strict_phase;
        ecfg.use_shortcuts = spec.escape_shortcuts;
        ecfg.penalties = spec.escape_penalties;
        escape = std::make_unique<EscapeUpDown>(hx->graph(), ecfg);
      }
      {
        Scope t(log, "traffic.build");
        Rng traffic_rng = Rng(spec.seed).fork(0x7F);
        traffic = make_traffic(spec.pattern, *hx, traffic_rng,
                               spec.traffic_params);
      }
      ctx.graph = &hx->graph();
      ctx.hyperx = hx.get();
      ctx.dist = dist.get();
      ctx.escape = escape.get();
      ctx.num_vcs = spec.sim.num_vcs;
      ctx.packet_length = spec.sim.packet_length;
    }
    std::unique_ptr<Network> net;
    {
      Scope s(log, "sim.network_build");
      net = std::make_unique<Network>(ctx, *mech, *traffic, spec.sim, sps,
                                      network_seed(spec));
    }
    const double t1 = mono_now();
    net->set_step_pool(pool);
    net->attach_phase_times(&pt);
    step_task(*net, task, log, &pt);
    net->attach_phase_times(nullptr);
    r.setup_s = t1 - t0;
    r.step_s = mono_now() - t1;
    {
      Scope s(log, "telemetry.export");
      net->export_telemetry(r.cap);
    }
    {
      Scope s(log, "bench.check");
      finish_task(*net, mech->name(), task, r);
    }
    {
      Scope s(log, "sim.teardown");
      net.reset();
    }
  }
  r.wall_s = mono_now() - t0;
  r.events_s = pt.events;
  r.generation_s = pt.generation;
  r.alloc_s = pt.alloc;
  r.link_s = pt.link;
  return r;
}

// --- workloads ---------------------------------------------------------------

struct BenchWorkload {
  std::string name;
  std::vector<TaskSpec> tasks;
  Cycle window = 0;          ///< telemetry window of traced runs
  int jobs = 1;              ///< ParallelSweep workers (<= tasks, <= nproc)
  bool pooled = false;       ///< standard runs step on the step pool
  int replicas = 1;          ///< untraced reps run this many copies at once
  int min_reps = 1;
  bool check_run_task = true;///< compare task 0 with the library's run_task
};

/// fig06_random_faults --dims=2 at its reduced scale: 8x8 HyperX,
/// 8 servers/switch, 4 VCs, 11 cumulative random-fault steps x
/// {OmniSP, PolSP} x {uniform, rsp, dcr}, offered 1.0 — the same task
/// ids, specs and therefore result rows as that bench program.
BenchWorkload fig06_grid(std::uint64_t seed, int nproc) {
  BenchWorkload w;
  w.name = "fig06_grid";
  ExperimentSpec base = preset_2d(false);
  base.sides = {8, 8};
  base.servers_per_switch = -1;
  base.sim.num_vcs = 4;
  base.warmup = 1500;
  base.measure = 3000;
  base.seed = seed;
  HyperX scratch(base.sides, base.resolved_servers_per_switch());
  Rng frng(base.seed + 1000);
  const auto seq = random_fault_sequence(scratch.graph(), frng);
  const int max_faults = std::max(10, scratch.graph().num_links() * 100 / 3840);
  const int steps = 10;
  TaskGrid grid("fig06_random_faults");
  for (int step = 0; step <= steps; ++step) {
    const int faults = max_faults * step / steps;
    ExperimentSpec s = base;
    s.fault_links.assign(seq.begin(), seq.begin() + faults);
    for (const char* mech : {"omnisp", "polsp"}) {
      for (const char* pattern : {"uniform", "rsp", "dcr"}) {
        s.mechanism = mech;
        s.pattern = pattern;
        TaskSpec task = TaskSpec::rate(s, 1.0);
        task.extra = "dims=2;faults=" + std::to_string(faults);
        grid.add(std::move(task));
      }
    }
  }
  w.tasks = grid.tasks();
  w.window = 500;
  w.jobs = std::min(nproc, static_cast<int>(w.tasks.size()));
  return w;
}

/// One serial 8x8 PolSP network at offered 0.10 (hxsp_perf's fig06_low
/// point: the first 8 canonical faults) over a long horizon.
BenchWorkload light_8x8(std::uint64_t seed, int nproc) {
  BenchWorkload w;
  w.name = "light_8x8";
  ExperimentSpec s;
  s.sides = {8, 8};
  s.mechanism = "polsp";
  s.pattern = "uniform";
  s.sim.num_vcs = 4;
  s.seed = seed;
  s.warmup = 2000;
  s.measure = 48000;
  HyperX scratch(s.sides, s.resolved_servers_per_switch());
  Rng frng(s.seed + 1000);
  const auto seq = random_fault_sequence(scratch.graph(), frng);
  s.fault_links.assign(seq.begin(), seq.begin() + 8);
  TaskSpec task = TaskSpec::rate(s, 0.10);
  task.id = make_task_id("light_8x8", 0);
  w.tasks.push_back(task);
  w.window = 2000;
  // One replica per core: on a shared host, contention from other tenants
  // hits single cores for seconds at a time, and one serial network that
  // the scheduler keeps on such a core skews a whole run. The replicas
  // share no state and hold a few MiB each.
  w.replicas = nproc;
  w.min_reps = 5;
  return w;
}

/// hxsp_perf --grid=big --quick's big_min: 32x32x32 switches x 32
/// servers (1,048,576 servers), minimal adaptive, 2 VCs, the first 16
/// links failed, offered 0.03, lean buffers, stepped on the step pool.
BenchWorkload big_1m(std::uint64_t seed) {
  BenchWorkload w;
  w.name = "big_1m";
  ExperimentSpec s;
  s.sides = {32, 32, 32};
  s.servers_per_switch = 32;
  s.mechanism = "minimal";
  s.pattern = "uniform";
  s.sim.packet_length = 4;
  s.sim.input_buffer_packets = 2;
  s.sim.output_buffer_packets = 1;
  s.sim.num_vcs = 2;
  s.sim.server_queue_packets = 2;
  s.seed = seed;
  s.warmup = 10;
  s.measure = 30;
  for (int l = 0; l < 16; ++l) s.fault_links.push_back(static_cast<LinkId>(l));
  TaskSpec task = TaskSpec::rate(s, 0.03);
  task.id = make_task_id("big_1m", 0);
  w.tasks.push_back(task);
  w.window = 10;
  w.pooled = true;
  w.min_reps = 3;
  w.check_run_task = false;  // one more 1M-server build; see README
  return w;
}

// --- measurement -------------------------------------------------------------

/// Failure accounting of one invocation: every simulated task run is an
/// attempt; a run fails when it breaks conservation or its digest
/// differs from the reference run of the same task.
struct Gate {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void run(const TaskRun& r, const TaskRun& ref, const std::string& what) {
    ++attempted;
    bool ok = true;
    if (!r.conserved) {
      ok = false;
      problems.push_back(what + ": packet conservation violated");
    }
    if (r.digest_text() != ref.digest_text()) {
      ok = false;
      problems.push_back(what + ": result digest differs from the reference");
    }
    if (!ok) ++failed;
  }

  /// A check over runs already attempted failed.
  void fail(const std::string& what) {
    ++failed;
    problems.push_back(what);
  }
};

struct Pass {
  std::vector<TaskRun> runs;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  SpanLog harness;  ///< harness-level spans (traced passes)
  std::string digest;
};

/// Runs every task of \p tasks once across a ParallelSweep of \p jobs
/// workers, delivering each result to a ResultSink in task order.
Pass run_pass(const std::vector<TaskSpec>& tasks, int jobs,
                  ThreadPool* pool, bool traced, Cycle window) {
  Pass p;
  p.harness.on = traced;
  p.harness.thread = thread_index();
  ParallelSweep sweep(jobs);
  ResultSink sink(tasks.front().driver());
  std::string digest_text;
  const double cpu0 = process_cpu_s();
  const double t0 = mono_now();
  {
    Scope map_span(&p.harness, "harness.map");
    p.runs = sweep.map<TaskRun>(
        tasks.size(),
        [&](std::size_t i) {
          return traced ? run_traced(tasks[i], pool, window,
                                     static_cast<int>(i))
                        : run_untraced(tasks[i], pool);
        },
        [&](std::size_t i, const TaskRun& r) {
          digest_text += r.digest_text();
          Scope s(&p.harness, "metrics.sink");
          sink.add(tasks[i], TaskResult(r.row));
        });
  }
  p.wall_s = mono_now() - t0;
  p.cpu_s = process_cpu_s() - cpu0;
  for (const TaskRun& r : p.runs) p.cpu_s -= r.checks_cpu_s;
  HXSP_CHECK(sink.size() == tasks.size());
  p.digest = hex64(fnv1a(digest_text));
  return p;
}

/// Metric name -> value, in insertion order for readable output.
using Metrics = std::vector<std::pair<std::string, double>>;

struct Totals {
  double setup = 0, step = 0, cycles = 0, packets = 0;
  double accepted = 0, p50 = 0, p99 = 0;
};

Totals totals(const std::vector<TaskRun>& runs) {
  Totals t;
  for (const TaskRun& r : runs) {
    t.setup += r.setup_s;
    t.step += r.step_s;
    t.cycles += static_cast<double>(r.cycles);
    t.packets += static_cast<double>(r.consumed);
    t.accepted += r.row.accepted;
    t.p50 += static_cast<double>(r.p50_latency);
    t.p99 += static_cast<double>(r.row.p99_latency);
  }
  const double n = static_cast<double>(runs.size());
  t.accepted /= n;
  t.p50 /= n;
  t.p99 /= n;
  return t;
}

/// Deterministic telemetry sums of one traced task.
struct Counts {
  double injected = 0, consumed = 0, hops_routing = 0, hops_escape = 0,
         hops_forced = 0, escape_entries = 0, credit_stalls = 0,
         link_phits = 0;
  double measured_hops = 0, measured_escape_hops = 0;
  double first_window_phits = 0, last_window_phits = 0;

  Counts& operator+=(const Counts& o) {
    injected += o.injected;
    consumed += o.consumed;
    hops_routing += o.hops_routing;
    hops_escape += o.hops_escape;
    hops_forced += o.hops_forced;
    escape_entries += o.escape_entries;
    credit_stalls += o.credit_stalls;
    link_phits += o.link_phits;
    measured_hops += o.measured_hops;
    measured_escape_hops += o.measured_escape_hops;
    first_window_phits += o.first_window_phits;
    last_window_phits += o.last_window_phits;
    return *this;
  }
};

Counts counts_of(const TaskRun& r, Cycle warmup) {
  Counts c;
  bool first = true;
  for (const TelemetryFrame& f : r.cap.frames) {
    c.injected += static_cast<double>(f.injected);
    c.consumed += static_cast<double>(f.consumed);
    c.hops_routing += static_cast<double>(f.hops_routing);
    c.hops_escape += static_cast<double>(f.hops_escape);
    c.hops_forced += static_cast<double>(f.hops_forced);
    c.escape_entries += static_cast<double>(f.escape_entries);
    c.credit_stalls += static_cast<double>(f.credit_stalls);
    c.link_phits += static_cast<double>(f.link_phits);
    if (f.start < warmup) continue;
    const double hops = static_cast<double>(f.hops_routing + f.hops_escape +
                                            f.hops_forced);
    c.measured_hops += hops;
    c.measured_escape_hops += static_cast<double>(f.hops_escape + f.hops_forced);
    if (first) c.first_window_phits = static_cast<double>(f.consumed_phits);
    first = false;
    c.last_window_phits = static_cast<double>(f.consumed_phits);
  }
  return c;
}

std::string counts_text(const Counts& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f",
                c.injected, c.consumed, c.hops_routing, c.hops_escape,
                c.hops_forced, c.escape_entries, c.credit_stalls, c.link_phits);
  return buf;
}

struct Outcome {
  Metrics metrics;
  Gate gate;
  std::string digest;
  std::string counts_digest;
  int reps = 0;
  std::vector<double> rep_wall_s;  ///< per-rep samples behind wall_s
  std::map<std::string, double> layer_self_s;
  std::map<std::string, double> ratio_by_mech;
  // Spans for the Chrome trace: the harness level and the traced runs.
  SpanLog harness;
  std::vector<TaskRun> traced;
};

ThreadPool* maybe(const std::unique_ptr<ThreadPool>& p, bool on) {
  return on ? p.get() : nullptr;
}

/// Per-layer metrics of the traced \p pass over every task of \p w.
/// \p untraced_step_s is the matching untraced stepping wall.
void layer_metrics(const BenchWorkload& w, const Pass& pass,
                   double untraced_step_s, double pool_speedup, Outcome& out) {
  const std::vector<TaskRun>& traced = pass.runs;
  std::map<std::string, double> self, harness_self;
  for (const TaskRun& r : traced) add_self_times(r.log, self);
  add_self_times(pass.harness, harness_self);
  std::vector<double> task_s;
  double busy = 0.0;
  for (const TaskRun& r : traced) {
    task_s.push_back(r.wall_s);
    busy += r.wall_s;
  }
  Counts sum;
  std::map<std::string, std::pair<double, double>> by_mech;  // first, last
  double events = 0, generation = 0, alloc = 0, link = 0, step = 0;
  for (const TaskRun& r : traced) {
    const Counts c = counts_of(r, w.tasks.front().spec.warmup);
    sum += c;
    by_mech[r.row.mechanism].first += c.first_window_phits;
    by_mech[r.row.mechanism].second += c.last_window_phits;
    events += r.events_s;
    generation += r.generation_s;
    alloc += r.alloc_s;
    link += r.link_s;
    step += r.step_s;
  }
  double min_ratio = 1e300;
  for (const auto& kv : by_mech) {
    const double ratio =
        kv.second.first > 0 ? kv.second.second / kv.second.first : 0.0;
    out.ratio_by_mech[kv.first] = ratio;
    min_ratio = std::min(min_ratio, ratio);
  }
  const double hops = sum.hops_routing + sum.hops_escape + sum.hops_forced;
  Metrics& m = out.metrics;
  m.emplace_back("harness.task_s.p50", median(task_s));
  m.emplace_back("harness.task_s.max",
                 *std::max_element(task_s.begin(), task_s.end()));
  m.emplace_back("harness.idle_frac",
                 std::max(0.0, 1.0 - busy / (w.jobs * pass.wall_s)));
  m.emplace_back("metrics.sink_s", harness_self["metrics.sink"]);
  m.emplace_back("topology.build_s", self["topology.build"]);
  m.emplace_back("topology.distance_build_s", self["topology.distance_build"]);
  m.emplace_back("core.escape_build_s", self["core.escape_build"]);
  m.emplace_back("traffic.build_s", self["traffic.build"]);
  m.emplace_back("core.escape_hop_share",
                 sum.measured_hops > 0
                     ? sum.measured_escape_hops / sum.measured_hops
                     : 0.0);
  m.emplace_back("core.window_throughput_ratio",
                 sum.first_window_phits > 0
                     ? sum.last_window_phits / sum.first_window_phits
                     : 0.0);
  m.emplace_back("core.window_throughput_ratio.min_mech", min_ratio);
  m.emplace_back("sim.network_build_s", self["sim.network_build"]);
  m.emplace_back("sim.events_s", events);
  m.emplace_back("sim.generation_s", generation);
  m.emplace_back("sim.alloc_s", alloc);
  m.emplace_back("sim.link_s", link);
  m.emplace_back("sim.alloc_ns_per_hop", hops > 0 ? 1e9 * alloc / hops : 0.0);
  m.emplace_back("sim.injected", sum.injected);
  m.emplace_back("sim.consumed", sum.consumed);
  m.emplace_back("sim.hops_routing", sum.hops_routing);
  m.emplace_back("sim.hops_escape", sum.hops_escape);
  m.emplace_back("sim.hops_forced", sum.hops_forced);
  m.emplace_back("sim.escape_entries", sum.escape_entries);
  m.emplace_back("sim.credit_stalls", sum.credit_stalls);
  m.emplace_back("sim.link_phits", sum.link_phits);
  m.emplace_back("sim.step_pool_speedup", pool_speedup);
  m.emplace_back("telemetry.overhead_frac",
                 untraced_step_s > 0 ? (step - untraced_step_s) / untraced_step_s
                                     : 0.0);
  m.emplace_back("telemetry.export_s", self["telemetry.export"]);

  for (const auto& kv : self) {
    if (kv.first.rfind("bench.", 0) == 0) continue;
    out.layer_self_s[layer_of(kv.first)] += kv.second;
  }
  out.layer_self_s["sim"] += events + generation + alloc + link;
  out.layer_self_s["metrics"] += harness_self["metrics.sink"];
  std::string ct;
  for (const TaskRun& r : traced) ct += counts_text(counts_of(r, 0)) + "\n";
  out.counts_digest = hex64(fnv1a(ct));
}

/// Serial-vs-pooled stepping of task 0 over its full window, each side
/// from a fresh build. \p known is an already measured isolated run of
/// task 0 in the workload's standard mode (null: measure it here).
double pool_speedup(const BenchWorkload& w, const std::unique_ptr<ThreadPool>& pool,
                    const TaskRun* known, const TaskRun& ref, Gate& gate) {
  TaskRun standard;
  if (known == nullptr) {
    standard = run_untraced(w.tasks.front(), maybe(pool, w.pooled));
    gate.run(standard, ref, "pool probe (standard mode)");
    known = &standard;
  }
  const TaskRun other = run_untraced(w.tasks.front(), maybe(pool, !w.pooled));
  gate.run(other, ref, "pool probe (other mode)");
  const double serial = w.pooled ? other.step_s : known->step_s;
  const double pooled = w.pooled ? known->step_s : other.step_s;
  return serial / pooled;
}

/// Library cross-check: the benchmark's own assembly of task 0 must give
/// the row run_task() gives.
void check_run_task(const BenchWorkload& w, const TaskRun& ref, Gate& gate) {
  const TaskSpec& task = w.tasks.front();
  const TaskResult res = run_task(task);
  ++gate.attempted;
  if (ResultSink::csv_line(make_record(task, res)) != ref.record) {
    ++gate.failed;
    gate.problems.push_back("run_task() row differs from the benchmark's");
  }
}

Outcome run_grid_workload(const BenchWorkload& w, bool trace,
                          const std::unique_ptr<ThreadPool>& pool) {
  Outcome out;
  const Pass plain =
      run_pass(w.tasks, w.jobs, maybe(pool, w.pooled), false, w.window);
  out.digest = plain.digest;
  out.reps = 1;
  for (std::size_t i = 0; i < plain.runs.size(); ++i)
    out.gate.run(plain.runs[i], plain.runs[i], "task " + std::to_string(i));
  const TaskRun& ref = plain.runs.front();
  if (w.check_run_task) check_run_task(w, ref, out.gate);
  if (!trace) {
    const Totals t = totals(plain.runs);
    Metrics& m = out.metrics;
    m.emplace_back("wall_s", plain.wall_s);
    m.emplace_back("setup_s", t.setup);
    m.emplace_back("cpu_s", plain.cpu_s);
    m.emplace_back("cycles_per_s", t.cycles / t.step);
    m.emplace_back("packets_per_s", t.packets / t.step);
    m.emplace_back("accepted", t.accepted);
    m.emplace_back("latency_p50_cycles", t.p50);
    m.emplace_back("latency_p99_cycles", t.p99);
    return out;
  }
  Pass traced =
      run_pass(w.tasks, w.jobs, maybe(pool, w.pooled), true, w.window);
  for (std::size_t i = 0; i < traced.runs.size(); ++i)
    out.gate.run(traced.runs[i], plain.runs[i],
                 "traced task " + std::to_string(i));
  const double speedup = pool_speedup(w, pool, nullptr, ref, out.gate);
  layer_metrics(w, traced, totals(plain.runs).step, speedup, out);
  out.harness = std::move(traced.harness);
  out.traced = std::move(traced.runs);
  return out;
}

/// Index of the pass whose (single) task stepped for the median time.
std::size_t median_pass(const std::vector<Pass>& passes) {
  std::vector<std::size_t> order(passes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return passes[a].runs.front().step_s < passes[b].runs.front().step_s;
  });
  return order[order.size() / 2];
}

Outcome run_rep_workload(const BenchWorkload& w, bool trace, double seconds,
                         const std::unique_ptr<ThreadPool>& pool) {
  Outcome out;
  ThreadPool* standard_pool = maybe(pool, w.pooled);
  // Traced runs compare isolated reps; untraced reps run the replicas.
  const int copies = trace ? 1 : w.replicas;
  const std::vector<TaskSpec> batch(static_cast<std::size_t>(copies),
                                    w.tasks.front());
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  const auto rep = [&](bool traced_rep) {
    std::vector<Pass>& passes = traced_rep ? traced : plain;
    passes.push_back(
        run_pass(batch, copies, standard_pool, traced_rep, w.window));
    for (const TaskRun& r : passes.back().runs)
      out.gate.run(r, plain.front().runs.front(),
                   std::string(traced_rep ? "traced rep " : "rep ") +
                       std::to_string(passes.size() - 1));
  };
  // Untraced runs repeat for the time budget (at least min_reps). Traced
  // runs alternate untraced and traced reps so both sides see the same
  // host state; at million-server scale one pair is enough.
  const int min_reps = trace ? (w.pooled ? 1 : 3) : w.min_reps;
  const double t0 = mono_now();
  while (static_cast<int>(plain.size()) < min_reps ||
         (mono_now() - t0 < seconds && plain.size() < 400 &&
          !(trace && w.pooled))) {
    rep(false);
    if (trace) rep(true);
  }
  const TaskRun& ref = plain.front().runs.front();
  out.digest = hex64(fnv1a(ref.digest_text()));
  if (w.check_run_task) check_run_task(w, ref, out.gate);
  std::vector<double> wall, setup, cpu, step, cps, pps;
  for (const Pass& p : plain) {
    cpu.push_back(p.cpu_s / static_cast<double>(p.runs.size()));
    for (const TaskRun& r : p.runs) {
      wall.push_back(r.wall_s);
      setup.push_back(r.setup_s);
      step.push_back(r.step_s);
      cps.push_back(static_cast<double>(r.cycles) / r.step_s);
      pps.push_back(static_cast<double>(r.consumed) / r.step_s);
    }
  }
  out.reps = static_cast<int>(wall.size());
  out.rep_wall_s = wall;
  if (!trace) {
    Metrics& m = out.metrics;
    m.emplace_back("wall_s", median(wall));
    m.emplace_back("setup_s", median(setup));
    m.emplace_back("cpu_s", median(cpu));
    m.emplace_back("cycles_per_s", median(cps));
    m.emplace_back("packets_per_s", median(pps));
    m.emplace_back("accepted", ref.row.accepted);
    m.emplace_back("latency_p50_cycles", static_cast<double>(ref.p50_latency));
    m.emplace_back("latency_p99_cycles", static_cast<double>(ref.row.p99_latency));
    return out;
  }
  // The traced reps replay identical work: their counts must agree.
  const std::string first_counts =
      counts_text(counts_of(traced.front().runs.front(), 0));
  for (const Pass& p : traced)
    if (counts_text(counts_of(p.runs.front(), 0)) != first_counts)
      out.gate.fail("telemetry counts differ across traced reps");
  // Per-layer times come from the traced rep with the median stepping
  // wall; the pool probe reuses the untraced rep with the median one.
  Pass& mid = traced[median_pass(traced)];
  const TaskRun& known = plain[median_pass(plain)].runs.front();
  const double speedup = pool_speedup(w, pool, &known, ref, out.gate);
  layer_metrics(w, mid, median(step), speedup, out);
  out.harness = std::move(mid.harness);
  out.traced = std::move(mid.runs);
  return out;
}

/// Writes the traced spans as Chrome-trace JSON (Perfetto loads it).
void write_chrome_trace(const std::string& path, const Outcome& out,
                        const std::string& workload, std::uint64_t seed) {
  std::vector<const SpanLog*> logs = {&out.harness};
  for (const TaskRun& r : out.traced) logs.push_back(&r.log);
  double origin = 1e300;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans) origin = std::min(origin, s.t0);
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      w.begin_object();
      w.key("name").value(s.name);
      w.key("cat").value(layer_of(s.name));
      w.key("ph").value("X");
      w.key("ts").value(1e6 * (s.t0 - origin));
      w.key("dur").value(1e6 * (s.t1 - s.t0));
      w.key("pid").value(1);
      w.key("tid").value(log->thread);
      w.key("args").begin_object();
      w.key("task").value(log->task);
      w.key("span").value(static_cast<std::int64_t>(i));
      w.key("parent").value(s.parent);
      if (s.attributed > 0) w.key("phase_s").value(s.attributed);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.key("otherData").begin_object();
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("layer_self_s").begin_object();
  for (const auto& kv : out.layer_self_s) w.key(kv.first).value(kv.second);
  w.end_object();
  w.end_object();
  w.end_object();
  HXSP_CHECK_MSG(write_whole_file(path, w.str() + "\n"),
                 "cannot write the Chrome trace");
}

} // namespace

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const std::string name = opt.get("workload", "");
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const double seconds = opt.get_double("seconds", 10.0);
  const bool trace = opt.get_int("trace", 0) != 0;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::string trace_out = opt.get("trace-out", "");
  opt.warn_unknown();

  BenchWorkload w;
  if (name == "fig06_grid") {
    w = fig06_grid(seed, nproc);
  } else if (name == "light_8x8") {
    w = light_8x8(seed, nproc);
  } else if (name == "big_1m") {
    w = big_1m(seed);
  } else {
    std::fprintf(stderr, "hxbench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  // The step pool keeps the process at or below nproc threads: the
  // stepping thread plus nproc - 1 workers (one worker on a 1-core host,
  // where the pool is only ever a probe).
  const std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(std::max(1, nproc - 1));

  // A single-task workload repeats its task for the time budget; a grid
  // runs once.
  const Outcome out = w.tasks.size() == 1
                          ? run_rep_workload(w, trace, seconds, pool)
                          : run_grid_workload(w, trace, pool);
  if (trace && !trace_out.empty())
    write_chrome_trace(trace_out, out, w.name, seed);

  JsonWriter j;
  j.begin_object();
  j.key("workload").value(w.name);
  j.key("seed").value(seed);
  j.key("trace").value(trace);
  j.key("tasks").value(static_cast<std::int64_t>(w.tasks.size()));
  j.key("reps").value(out.reps);
  j.key("jobs").value(w.jobs);
  j.key("step_pool_workers").value(pool->size());
  j.key("nproc").value(nproc);
#if defined(__clang__)
  j.key("compiler").value("clang " __clang_version__);
#elif defined(__GNUC__)
  j.key("compiler").value("gcc " __VERSION__);
#else
  j.key("compiler").value("unknown");
#endif
  j.key("attempted").value(out.gate.attempted);
  j.key("failed").value(out.gate.failed);
  j.key("problems").begin_array();
  for (const std::string& p : out.gate.problems) j.value(p);
  j.end_array();
  j.key("rep_wall_s").begin_array();
  for (double v : out.rep_wall_s) j.value(v);
  j.end_array();
  j.key("digest").value(out.digest);
  if (trace) j.key("counts_digest").value(out.counts_digest);
  j.key("metrics").begin_object();
  for (const auto& kv : out.metrics) j.key(kv.first).value(kv.second);
  j.key("peak_rss_mib").value(peak_rss_mib());
  j.end_object();
  if (trace) {
    j.key("window_throughput_ratio_by_mech").begin_object();
    for (const auto& kv : out.ratio_by_mech) j.key(kv.first).value(kv.second);
    j.end_object();
    j.key("layer_self_s").begin_object();
    for (const auto& kv : out.layer_self_s) j.key(kv.first).value(kv.second);
    j.end_object();
  }
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}
