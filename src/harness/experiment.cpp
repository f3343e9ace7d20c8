#include "harness/experiment.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "telemetry/capture.hpp"
#include "topology/computed_distance.hpp"
#include "util/jsonio.hpp"
#include "util/log.hpp"
#include "workload/run.hpp"

namespace hxsp {

// ---------------------------------------------------------------------------
// Spec equality and JSON codec. Every field is serialized; the codec is
// the lossless transport the distributed sweep layer (TaskSpec manifests,
// hxsp_runner) rides on, so adding a spec field means extending BOTH
// spec_write_json and spec_from_json, plus operator== below — the
// round-trip tests fail otherwise.
// ---------------------------------------------------------------------------

bool operator==(const ExperimentSpec& a, const ExperimentSpec& b) {
  return a.sides == b.sides && a.servers_per_switch == b.servers_per_switch &&
         a.mechanism == b.mechanism && a.pattern == b.pattern &&
         a.traffic_params == b.traffic_params &&
         a.sim == b.sim && a.fault_links == b.fault_links &&
         a.escape_root == b.escape_root &&
         a.escape_strict_phase == b.escape_strict_phase &&
         a.escape_shortcuts == b.escape_shortcuts &&
         a.escape_penalties == b.escape_penalties && a.warmup == b.warmup &&
         a.measure == b.measure && a.seed == b.seed;
}

void spec_write_json(JsonWriter& w, const ExperimentSpec& s) {
  w.begin_object();
  w.key("sides").begin_array();
  for (int side : s.sides) w.value(side);
  w.end_array();
  w.key("servers_per_switch").value(s.servers_per_switch);
  w.key("mechanism").value(s.mechanism);
  w.key("pattern").value(s.pattern);
  w.key("traffic_params").begin_object();
  w.key("hotspot_fraction").value(s.traffic_params.hotspot_fraction);
  w.key("hotspot_count").value(s.traffic_params.hotspot_count);
  w.end_object();
  w.key("sim").begin_object();
  w.key("packet_length").value(s.sim.packet_length);
  w.key("input_buffer_packets").value(s.sim.input_buffer_packets);
  w.key("output_buffer_packets").value(s.sim.output_buffer_packets);
  w.key("link_latency").value(s.sim.link_latency);
  w.key("xbar_latency").value(s.sim.xbar_latency);
  w.key("xbar_speedup").value(s.sim.xbar_speedup);
  w.key("num_vcs").value(s.sim.num_vcs);
  w.key("server_queue_packets").value(s.sim.server_queue_packets);
  w.key("watchdog_cycles").value(static_cast<std::int64_t>(s.sim.watchdog_cycles));
  w.key("audit_interval").value(static_cast<std::int64_t>(s.sim.audit_interval));
  w.key("telemetry_window").value(static_cast<std::int64_t>(s.sim.telemetry_window));
  w.key("trace_sample").value(s.sim.trace_sample);
  w.key("flight_recorder").value(s.sim.flight_recorder);
  w.end_object();
  w.key("fault_links").begin_array();
  for (LinkId l : s.fault_links) w.value(static_cast<std::int64_t>(l));
  w.end_array();
  w.key("escape_root").value(static_cast<std::int64_t>(s.escape_root));
  w.key("escape_strict_phase").value(s.escape_strict_phase);
  w.key("escape_shortcuts").value(s.escape_shortcuts);
  w.key("escape_penalties").begin_object();
  w.key("up").value(s.escape_penalties.up);
  w.key("down").value(s.escape_penalties.down);
  w.key("red1").value(s.escape_penalties.red1);
  w.key("red2").value(s.escape_penalties.red2);
  w.key("red3").value(s.escape_penalties.red3);
  w.end_object();
  w.key("warmup").value(static_cast<std::int64_t>(s.warmup));
  w.key("measure").value(static_cast<std::int64_t>(s.measure));
  w.key("seed").value(static_cast<std::uint64_t>(s.seed));
  w.end_object();
}

std::string spec_to_json(const ExperimentSpec& spec) {
  JsonWriter w;
  spec_write_json(w, spec);
  return w.str();
}

namespace {

/// Decode bounds on the terms of the allocator's Q + P score, so the score
/// sum cannot overflow int however a manifest is edited.
constexpr int kMaxBufferPackets = 4096;
constexpr int kMaxPenalty = 1 << 20;

} // namespace

ExperimentSpec spec_from_json(const JsonValue& v) {
  ExperimentSpec s;
  s.sides.clear();
  for (const JsonValue& side : v.at("sides").array())
    s.sides.push_back(side.as_int());
  HXSP_CHECK_MSG(!s.sides.empty() &&
                     std::all_of(s.sides.begin(), s.sides.end(),
                                 [](int k) { return k >= 2; }),
                 "sides must be non-empty, every side >= 2");
  s.servers_per_switch = v.at("servers_per_switch").as_int();
  HXSP_CHECK_MSG(s.servers_per_switch != 0,
                 "servers_per_switch must be >= 1 (negative: sides[0])");
  s.mechanism = v.at("mechanism").as_string();
  s.pattern = v.at("pattern").as_string();
  const JsonValue& tp = v.at("traffic_params");
  s.traffic_params.hotspot_fraction = tp.at("hotspot_fraction").as_double();
  s.traffic_params.hotspot_count = tp.at("hotspot_count").as_int();
  const JsonValue& sim = v.at("sim");
  s.sim.packet_length = sim.at("packet_length").as_int();
  s.sim.input_buffer_packets = sim.at("input_buffer_packets").as_int();
  s.sim.output_buffer_packets = sim.at("output_buffer_packets").as_int();
  s.sim.link_latency = sim.at("link_latency").as_int();
  s.sim.xbar_latency = sim.at("xbar_latency").as_int();
  s.sim.xbar_speedup = sim.at("xbar_speedup").as_int();
  // Every event delay must land inside the 64-cycle event wheel, strictly
  // after the cycle that schedules it: a tail leaves an output buffer
  // packet_length cycles after its head, and a packet is consumed
  // link_latency + packet_length - 1 cycles after its transmission.
  HXSP_CHECK_MSG(s.sim.packet_length >= 1 && s.sim.packet_length <= 63,
                 "sim.packet_length must be in [1, 63]");
  HXSP_CHECK_MSG(s.sim.link_latency >= 0, "sim.link_latency must be >= 0");
  HXSP_CHECK_MSG(s.sim.link_latency + s.sim.packet_length >= 2 &&
                     s.sim.link_latency + s.sim.packet_length <= 64,
                 "sim.link_latency + sim.packet_length must be in [2, 64]");
  // Buffer sizes bound every qs term of the allocator's Q + P score (a
  // port's sum over 32 VCs of 2 x 4096 x 63 phits stays far inside int).
  HXSP_CHECK_MSG(s.sim.input_buffer_packets >= 1,
                 "sim.input_buffer_packets must be >= 1");
  HXSP_CHECK_MSG(s.sim.input_buffer_packets <= kMaxBufferPackets,
                 "sim.input_buffer_packets must be <= 4096");
  HXSP_CHECK_MSG(s.sim.output_buffer_packets >= 1,
                 "sim.output_buffer_packets must be >= 1");
  HXSP_CHECK_MSG(s.sim.output_buffer_packets <= kMaxBufferPackets,
                 "sim.output_buffer_packets must be <= 4096");
  // xbar_cycles() divides by the speedup.
  HXSP_CHECK_MSG(s.sim.xbar_speedup >= 1, "sim.xbar_speedup must be >= 1");
  s.sim.num_vcs = sim.at("num_vcs").as_int();
  // Zero VCs would simulate an empty network; the allocator's feasibility
  // mask holds at most 32.
  HXSP_CHECK_MSG(s.sim.num_vcs >= 1 && s.sim.num_vcs <= 32,
                 "sim.num_vcs must be in [1, 32]");
  s.sim.server_queue_packets = sim.at("server_queue_packets").as_int();
  HXSP_CHECK_MSG(s.sim.server_queue_packets >= 1,
                 "sim.server_queue_packets must be >= 1");
  s.sim.watchdog_cycles = sim.at("watchdog_cycles").as_i64();
  // Tolerant read: manifests written before the auditor existed lack the
  // key; they mean "audit off", whatever the build default.
  const JsonValue* audit = sim.find("audit_interval");
  s.sim.audit_interval = audit ? audit->as_i64() : 0;
  // Same tolerance for the telemetry knobs (PR 10): absent means off.
  const JsonValue* telemetry = sim.find("telemetry_window");
  s.sim.telemetry_window = telemetry ? telemetry->as_i64() : 0;
  const JsonValue* trace = sim.find("trace_sample");
  s.sim.trace_sample = trace ? trace->as_int() : 0;
  const JsonValue* flight = sim.find("flight_recorder");
  s.sim.flight_recorder = flight ? flight->as_int() : 0;
  HXSP_CHECK_MSG(s.sim.audit_interval >= 0,
                 "sim.audit_interval must be >= 0");
  HXSP_CHECK_MSG(s.sim.telemetry_window >= 0,
                 "sim.telemetry_window must be >= 0");
  HXSP_CHECK_MSG(s.sim.trace_sample >= 0, "sim.trace_sample must be >= 0");
  HXSP_CHECK_MSG(s.sim.flight_recorder >= 0,
                 "sim.flight_recorder must be >= 0");
  s.fault_links.clear();
  for (const JsonValue& l : v.at("fault_links").array())
    s.fault_links.push_back(static_cast<LinkId>(l.as_i64()));
  const std::int64_t root = v.at("escape_root").as_i64();
  // Saturated at the SwitchId range (HyperX rejects larger fabrics), so
  // the product cannot overflow.
  std::int64_t num_switches = 1;
  for (int k : s.sides)
    num_switches = std::min<std::int64_t>(num_switches * k,
                                          std::numeric_limits<SwitchId>::max());
  HXSP_CHECK_MSG(root >= 0 && root < num_switches,
                 ("escape_root: switch id " + std::to_string(root) +
                  " out of range, the topology has " +
                  std::to_string(num_switches) + " switches")
                     .c_str());
  s.escape_root = static_cast<SwitchId>(root);
  s.escape_strict_phase = v.at("escape_strict_phase").as_bool();
  s.escape_shortcuts = v.at("escape_shortcuts").as_bool();
  // The P term of the Q + P score: bounded so that adding it to the
  // bounded queue terms cannot overflow int.
  const JsonValue& pen = v.at("escape_penalties");
  const auto penalty = [&pen](const char* key) {
    const int p = pen.at(key).as_int();
    HXSP_CHECK_MSG(p >= 0 && p <= kMaxPenalty,
                   ("escape_penalties." + std::string(key) +
                    " must be in [0, 2^20]")
                       .c_str());
    return p;
  };
  s.escape_penalties.up = penalty("up");
  s.escape_penalties.down = penalty("down");
  s.escape_penalties.red1 = penalty("red1");
  s.escape_penalties.red2 = penalty("red2");
  s.escape_penalties.red3 = penalty("red3");
  s.warmup = v.at("warmup").as_i64();
  HXSP_CHECK_MSG(s.warmup >= 0, "warmup must be >= 0");
  s.measure = v.at("measure").as_i64();
  // The measurement window must be non-empty to yield a row.
  HXSP_CHECK_MSG(s.measure >= 1, "measure must be >= 1");
  s.seed = v.at("seed").as_u64();
  return s;
}

ExperimentSpec spec_from_json_text(const std::string& text) {
  return spec_from_json(JsonValue::parse(text));
}

Experiment::Experiment(const ExperimentSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  hx_ = std::make_unique<HyperX>(spec_.sides,
                                 spec_.resolved_servers_per_switch());
  apply_faults(hx_->graph(), spec_.fault_links);
  HXSP_CHECK_MSG(hx_->graph().connected(),
                 "fault set disconnects the network; experiment undefined");

  // Dense reference table at small N, computed HyperX provider at large N
  // (see make_distance_provider): value-identical by the parity suite, so
  // the selection is purely a memory/time trade.
  dist_ = make_distance_provider(*hx_);
  mech_ = make_mechanism(spec_.mechanism);

  if (mech_->needs_escape()) {
    EscapeUpDown::Config ecfg;
    ecfg.root = spec_.escape_root;
    ecfg.strict_phase = spec_.escape_strict_phase;
    ecfg.use_shortcuts = spec_.escape_shortcuts;
    ecfg.penalties = spec_.escape_penalties;
    escape_ = std::make_unique<EscapeUpDown>(hx_->graph(), ecfg);
  }

  Rng traffic_rng = rng_.fork(0x7F);
  traffic_ = make_traffic(spec_.pattern, *hx_, traffic_rng,
                          spec_.traffic_params);

  ctx_.graph = &hx_->graph();
  ctx_.hyperx = hx_.get();
  ctx_.dist = dist_.get();
  ctx_.escape = escape_.get();
  ctx_.num_vcs = spec_.sim.num_vcs;
  ctx_.packet_length = spec_.sim.packet_length;
}

ResultRow Experiment::run_load(double offered) {
  return run_load_hotspots(offered, 0).first;
}

void Experiment::set_step_threads(int threads) {
  HXSP_CHECK(threads >= 0);
  if (threads == 0) {
    step_pool_.reset();
    return;
  }
  if (!step_pool_ || step_pool_->size() != threads)
    step_pool_ = std::make_unique<ThreadPool>(threads);
}

std::pair<ResultRow, std::vector<HotLink>>
Experiment::run_load_hotspots(double offered, int top_n) {
  const int sps = hx_->servers_per_switch();
  Network net(ctx_, *mech_, *traffic_, spec_.sim, sps,
              rng_.fork(0x10AD).next_u64());
  net.set_step_pool(step_pool_.get());
  net.set_offered_load(offered);
  net.run_cycles(spec_.warmup);
  net.begin_window();
  // Per-link phits are cumulative: the window's load is the difference
  // against this snapshot, taken only when someone asks for hot links.
  std::vector<std::int64_t> warm_link_phits;
  if (top_n > 0) warm_link_phits = net.metrics().link_phits();
  net.run_cycles(spec_.measure);
  net.end_window();
  if (telemetry_capture_) net.export_telemetry(*telemetry_capture_);

  ResultRow row;
  row.mechanism = mech_->name();
  row.pattern = spec_.pattern;
  row.offered = offered;
  row.from_metrics(net.metrics());
  std::vector<HotLink> hot;
  if (top_n > 0)
    hot = net.metrics().hottest_links(hx_->graph(), warm_link_phits, top_n,
                                      spec_.measure);
  return {row, hot};
}

CompletionResult Experiment::run_completion(long packets_per_server,
                                            Cycle bucket_width,
                                            Cycle max_cycles) {
  const int sps = hx_->servers_per_switch();
  Network net(ctx_, *mech_, *traffic_, spec_.sim, sps,
              rng_.fork(0xC0).next_u64());
  net.set_step_pool(step_pool_.get());
  CompletionResult res;
  res.mechanism = mech_->name();
  res.pattern = spec_.pattern;
  res.series = TimeSeries(bucket_width);
  res.num_servers = net.num_servers();
  net.attach_timeseries(&res.series);
  net.set_completion_load(packets_per_server);
  res.drained = net.run_until_drained(max_cycles);
  res.completion_time = net.now();
  if (telemetry_capture_) net.export_telemetry(*telemetry_capture_);
  return res;
}

WorkloadResult Experiment::run_workload(const WorkloadParams& params,
                                        Cycle bucket_width, Cycle max_cycles) {
  const int sps = hx_->servers_per_switch();
  Network net(ctx_, *mech_, *traffic_, spec_.sim, sps,
              rng_.fork(0xE0).next_u64());
  net.set_step_pool(step_pool_.get());
  // The workload's own stream: independent of the network stream so a
  // randomized workload (shuffle, random) does not perturb allocator
  // tie-breaks, and forked per call so repeated runs are identical.
  Rng wl_rng = rng_.fork(0xE1);
  const std::unique_ptr<Workload> wl = make_workload(params);
  std::vector<Message> msgs = wl->build(net.num_servers(), wl_rng);
  validate_workload(msgs, net.num_servers());
  WorkloadRun run(std::move(msgs));

  WorkloadResult res;
  res.mechanism = mech_->name();
  res.workload = wl->name();
  res.series = TimeSeries(bucket_width);
  res.num_servers = net.num_servers();
  res.num_messages = static_cast<long>(run.num_messages());
  res.total_packets = run.total_packets();
  net.attach_timeseries(&res.series);
  run.start(net);
  res.drained = net.run_until_drained(max_cycles);
  HXSP_DCHECK(res.drained == run.complete());
  res.completion_time = net.now();
  res.phase_cycles = run.phase_done();
  if (telemetry_capture_) net.export_telemetry(*telemetry_capture_);

  // Message-latency tail: release-to-consumed, over completed messages.
  std::vector<Cycle> lat = run.completed_latencies();
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    double sum = 0;
    for (Cycle l : lat) sum += static_cast<double>(l);
    res.avg_msg_latency = sum / static_cast<double>(lat.size());
    res.p50_msg_latency = lat[lat.size() / 2];
    res.p99_msg_latency =
        lat[static_cast<std::size_t>(0.99 * static_cast<double>(lat.size() - 1))];
  }
  return res;
}

MultitenantResult Experiment::run_multitenant(const MultitenantParams& params,
                                              Cycle bucket_width,
                                              Cycle max_cycles) {
  const int sps = hx_->servers_per_switch();
  Network net(ctx_, *mech_, *traffic_, spec_.sim, sps,
              rng_.fork(0xE0).next_u64());
  net.set_step_pool(step_pool_.get());
  // One build stream, consumed in job order, and the same network-seed
  // fork as run_workload: a single job spanning the whole fabric gets
  // byte-identical messages and a byte-identical engine stream to the
  // legacy workload mode (the golden bridge tests lock this).
  Rng wl_rng = rng_.fork(0xE1);
  std::vector<std::vector<Message>> job_msgs;
  job_msgs.reserve(params.jobs.size());
  for (const JobSpec& job : params.jobs)
    job_msgs.push_back(make_workload(job.workload)->build(job.demand, wl_rng));
  std::vector<std::vector<Message>> baseline_msgs;
  if (params.isolated_baseline) baseline_msgs = job_msgs;

  TenantScheduler sched(params, std::move(job_msgs), net.num_servers(), sps,
                        rng_.fork(0xE3));

  MultitenantResult res;
  res.mechanism = mech_->name();
  res.placement = params.placement;
  res.series = TimeSeries(bucket_width);
  res.num_servers = net.num_servers();
  res.num_jobs = static_cast<long>(params.jobs.size());
  net.attach_timeseries(&res.series);
  sched.start(net);
  for (Cycle a = sched.next_arrival(); a >= 0 && a <= max_cycles;
       a = sched.next_arrival()) {
    if (a > net.now()) net.run_cycles(a - net.now());
    sched.process_arrivals(net);
  }
  const bool net_drained = net.run_until_drained(
      max_cycles > net.now() ? max_cycles - net.now() : 0);
  res.drained = net_drained && sched.all_done();
  res.completion_time = net.now();
  res.jobs = sched.stats();
  for (const TenantJobStats& st : res.jobs)
    res.total_packets += st.total_packets;
  // Export from the shared fabric only; the isolated baseline networks
  // below are reference runs, not part of the observed system.
  if (telemetry_capture_) net.export_telemetry(*telemetry_capture_);

  if (params.isolated_baseline) {
    // Per-job isolated reference: same messages, same concrete placement,
    // an otherwise empty fabric — the slowdown column is pure
    // interference, not placement quality.
    const Rng base_rng = rng_.fork(0xE4);
    for (std::size_t j = 0; j < res.jobs.size(); ++j) {
      TenantJobStats& st = res.jobs[j];
      if (st.admitted < 0) continue;
      Network alone(ctx_, *mech_, *traffic_, spec_.sim, sps,
                    base_rng.fork(static_cast<std::uint64_t>(j)).next_u64());
      alone.set_step_pool(step_pool_.get());
      WorkloadRun run(baseline_msgs[j]);
      run.bind(sched.placement_of(static_cast<int>(j)));
      run.start(alone);
      alone.run_until_drained(max_cycles);
      if (!run.complete()) continue;
      st.isolated_span = alone.now();
      if (st.completed >= 0 && st.isolated_span > 0)
        st.slowdown = static_cast<double>(st.completed - st.admitted) /
                      static_cast<double>(st.isolated_span);
    }
  }
  return res;
}

DynamicResult Experiment::run_load_dynamic(double offered,
                                           std::vector<FaultEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  const LinkId num_links = hx_->graph().num_links();
  for (const FaultEvent& ev : events)
    HXSP_CHECK_MSG(ev.link >= 0 && ev.link < num_links,
                   ("events[].link: link id " + std::to_string(ev.link) +
                    " out of range, the topology has " +
                    std::to_string(num_links) + " links")
                       .c_str());

  const int sps = hx_->servers_per_switch();
  Network net(ctx_, *mech_, *traffic_, spec_.sim, sps,
              rng_.fork(0xD1).next_u64());
  net.set_step_pool(step_pool_.get());
  DynamicResult res;
  res.num_servers = net.num_servers();
  net.attach_timeseries(&res.series);
  net.set_offered_load(offered);

  auto rebuild_tables = [&] {
    // run_to checks connectivity per fault before rebuilding, but guard
    // here too: this lambda is also the restore path, and a rebuild on a
    // disconnected graph would poison diameter()-derived TTL bounds.
    HXSP_CHECK_MSG(hx_->graph().connected(),
                   "table rebuild on a disconnected network");
    dist_->rebuild();
    if (escape_) {
      EscapeUpDown::Config ecfg = escape_->config();
      *escape_ = EscapeUpDown(hx_->graph(), ecfg);
    }
  };

  std::size_t next = 0;
  std::vector<LinkId> applied;
  auto run_to = [&](Cycle target) {
    while (next < events.size() && events[next].at <= target) {
      net.run_cycles(std::max<Cycle>(0, events[next].at - net.now()));
      const LinkId link = events[next].link;
      if (hx_->graph().link_alive(link)) { // skip already-dead links
        hx_->graph().fail_link(link);
        HXSP_CHECK_MSG(hx_->graph().connected(),
                       "dynamic fault would disconnect the network");
        rebuild_tables();
        net.on_link_failed(link);
        applied.push_back(link);
      }
      ++next;
    }
    net.run_cycles(std::max<Cycle>(0, target - net.now()));
  };

  run_to(spec_.warmup);
  net.begin_window();
  run_to(spec_.warmup + spec_.measure);
  net.end_window();

  res.row.mechanism = mech_->name();
  res.row.pattern = spec_.pattern;
  res.row.offered = offered;
  res.row.from_metrics(net.metrics());
  res.dropped = net.dropped_packets();
  if (telemetry_capture_) net.export_telemetry(*telemetry_capture_);

  // Restore the injected faults and the tables so later runs see the
  // spec's static configuration again.
  for (LinkId link : applied) hx_->graph().restore_link(link);
  if (!applied.empty()) rebuild_tables();
  return res;
}

int Experiment::walk_route(SwitchId src, SwitchId dst, int max_hops) {
  Packet pkt;
  pkt.id = -1;
  pkt.src_server = hx_->server_at(src, 0);
  pkt.dst_server = hx_->server_at(dst, 0);
  pkt.src_switch = src;
  pkt.dst_switch = dst;
  pkt.length = spec_.sim.packet_length;
  Rng walk_rng = rng_.fork(0x3A1C);
  mech_->on_inject(ctx_, pkt, walk_rng);

  SwitchId cur = src;
  mech_->on_arrival(ctx_, pkt, cur);
  int hops = 0;
  RouteScratch scratch;
  std::vector<Candidate> cand;
  while (cur != dst) {
    if (hops >= max_hops) return -1;
    cand.clear();
    mech_->candidates(ctx_, pkt, cur, scratch, cand);
    if (cand.empty()) return -1;
    // Deterministic greedy walk: lowest penalty, then lowest port, then
    // lowest VC (each entry's lowest VC bit).
    const Candidate* best = &cand.front();
    for (const Candidate& c : cand) {
      if (c.penalty < best->penalty ||
          (c.penalty == best->penalty &&
           (c.port < best->port ||
            (c.port == best->port && lowest_vc(c.vcs) < lowest_vc(best->vcs)))))
        best = &c;
    }
    Candidate hop = *best;
    hop.vcs = vc_bit(lowest_vc(best->vcs));
    mech_->commit_hop(ctx_, pkt, cur, hop);
    cur = ctx_.graph->port(cur, hop.port).neighbor;
    mech_->on_arrival(ctx_, pkt, cur);
    ++hops;
  }
  return hops;
}

std::vector<ResultRow> sweep_loads(Experiment& e, const std::vector<double>& loads) {
  std::vector<ResultRow> rows;
  rows.reserve(loads.size());
  for (double l : loads) rows.push_back(e.run_load(l));
  return rows;
}

} // namespace hxsp
