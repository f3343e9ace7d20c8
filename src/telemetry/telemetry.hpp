#pragma once
/// \file telemetry.hpp
/// Cycle-windowed view of the engine's counters, owned per-Network.
///
/// The engine's ResultSink rows are end-of-run aggregates; this registry
/// answers the *where and when* questions behind them — which routers
/// saturated, which links carried the escape traffic, how the latency
/// percentiles moved as faults landed. It counts nothing itself: every
/// counter (injections, ejections, hop kinds, escape-path entries a.k.a.
/// SurePath activations, credit stalls, per-link phits, per-VC grants)
/// lives in the Network's SimMetrics, always on and cumulative from cycle
/// 0. Every `SimConfig::telemetry_window` cycles the registry closes a
/// TelemetryFrame as the difference between the current totals and the
/// snapshot it took at the previous roll. The one instrument of its own is
/// the input-VC occupancy high-water mark, because a maximum cannot be
/// windowed by difference.
///
/// Determinism contract: the registry only reads counters fed from serial
/// step phases, it never influences any simulation decision, and a
/// Network built with `telemetry_window == 0` allocates none — the step
/// pays one compare for the roll and one null-pointer compare at the
/// occupancy hook.

#include <cstdint>
#include <vector>

#include "metrics/stats.hpp"
#include "topology/graph.hpp"
#include "util/types.hpp"

namespace hxsp {

/// One closed telemetry window: everything that happened in
/// [start, end) cycles. Latency percentiles are computed from the
/// packets *consumed* inside the window (-1 when none were).
struct TelemetryFrame {
  std::int64_t window = 0; ///< 0-based window index
  Cycle start = 0;
  Cycle end = 0;
  std::int64_t injected = 0;        ///< packets that left a server
  std::int64_t consumed = 0;        ///< packets delivered to a server
  std::int64_t consumed_phits = 0;  ///< delivered payload (throughput)
  Cycle p50_latency = -1;           ///< generation-to-delivery, this window
  Cycle p99_latency = -1;
  std::int64_t hops_routing = 0;    ///< adaptive/minimal grants
  std::int64_t hops_escape = 0;     ///< grants onto an escape VC
  std::int64_t hops_forced = 0;     ///< escape grants with no routing cand
  std::int64_t escape_entries = 0;  ///< SurePath activations (entered escape)
  std::int64_t credit_stalls = 0;   ///< injection attempts starved of credits
  std::int64_t link_phits = 0;      ///< phits over all switch-switch links
  std::int64_t link_max_phits = 0;  ///< busiest single directed link
  std::int64_t occupancy_hwm = 0;   ///< input-VC occupancy high-water mark
};

bool operator==(const TelemetryFrame& a, const TelemetryFrame& b);

/// Per-window phit series of one directed switch-to-switch link, the
/// rows behind the `--preset=telemetry` heatmap. Only populated when the
/// topology has at most kMaxLinkSeriesLinks directed links.
struct LinkWindowSeries {
  SwitchId sw = kInvalid; ///< transmitting switch
  Port port = kInvalid;   ///< its output port
  SwitchId to = kInvalid; ///< receiving switch
  std::vector<std::int64_t> phits; ///< one entry per closed window
  std::int64_t total = 0;          ///< cumulative over the run
};

bool operator==(const LinkWindowSeries& a, const LinkWindowSeries& b);

struct TelemetryCapture;

/// The per-Network telemetry window registry. Constructed only when
/// `SimConfig::telemetry_window > 0`; on_occupancy is called behind the
/// owner's `if (telemetry_)` gate and from serial phases only.
class TelemetryRegistry {
 public:
  /// Above this many directed switch links the per-link window series is
  /// dropped (aggregates stay) — a 16^2 paper-scale HyperX would emit
  /// thousands of heatmap rows per task otherwise.
  static constexpr std::size_t kMaxLinkSeriesLinks = 1024;

  TelemetryRegistry(const Graph& g, Cycle window);

  /// Input-VC occupancy at \p sw after an arrival; keeps the high-water
  /// marks (window-level and per-router cumulative).
  void on_occupancy(SwitchId sw, std::int64_t occupancy) {
    std::int64_t& hwm = router_occupancy_hwm_[static_cast<std::size_t>(sw)];
    if (occupancy > hwm) hwm = occupancy;
    if (occupancy > occupancy_hwm_) occupancy_hwm_ = occupancy;
  }

  /// Closes the current window at cycle \p now (called by Network::step
  /// when the window boundary is reached) as the difference between
  /// \p m's counters and the snapshot taken at the previous roll.
  void roll(Cycle now, const SimMetrics& m);

  /// Closes a partial tail window if any cycles elapsed since the last
  /// roll; safe to call repeatedly (idempotent at a given \p now).
  void flush(Cycle now, const SimMetrics& m);

  /// Copies frames, link series and per-router occupancy high-water marks,
  /// plus \p m's cumulative per-router counters and per-VC grants, into
  /// \p out (does not touch its trace fields).
  void export_to(TelemetryCapture& out, const SimMetrics& m) const;

 private:
  Cycle window_;
  Cycle start_ = 0;                ///< first cycle of the open window
  std::int64_t occupancy_hwm_ = 0; ///< high-water mark, open window
  std::vector<std::int64_t> router_occupancy_hwm_; ///< cumulative
  // The counters at the previous roll.
  MetricTotals prev_;
  LatencyHistogram prev_hist_;
  std::vector<std::int64_t> prev_link_phits_;
  std::vector<TelemetryFrame> frames_;
  std::vector<LinkWindowSeries> links_; ///< empty above the series cap
};

} // namespace hxsp
