#pragma once
/// \file stats.hpp
/// The engine's one counter store (paper §4 metrics and §6 traffic
/// placement): every engine event feeds exactly one SimMetrics hook, and
/// every counter is cumulative from cycle 0. The measurement window
/// behind the result row, the hot-link ranking and each telemetry frame
/// are all the difference of two snapshots of the same integers — average
/// accepted throughput, message latency, the Jain fairness index of
/// per-server *generated* load, escape usage and per-link load.

#include <cstdint>
#include <vector>

#include "topology/graph.hpp"
#include "util/types.hpp"

namespace hxsp {

/// Jain fairness index of a load vector: (sum x)^2 / (n * sum x^2).
/// 1.0 = perfect equity; the paper calls >= 0.98 "a good value".
/// Returns 1.0 for an all-zero vector (vacuously fair).
double jain_index(const std::vector<std::int64_t>& x);

/// Fixed-width latency histogram with an overflow bucket; supports
/// percentile queries for the extension analyses.
class LatencyHistogram {
 public:
  /// \p bucket_width cycles per bucket, \p num_buckets buckets + overflow.
  explicit LatencyHistogram(int bucket_width = 8, int num_buckets = 1024);

  /// Records one sample.
  void add(Cycle latency);

  /// Number of recorded samples.
  std::int64_t count() const { return count_; }

  /// Approximate p-quantile (0 < p < 1) as the upper edge of the bucket
  /// containing it; returns -1 when empty.
  Cycle percentile(double p) const;

  /// Clears all samples.
  void reset();

  /// Bucket-wise difference: leaves the samples recorded since the
  /// snapshot \p earlier of this histogram (same shape) was taken.
  LatencyHistogram& operator-=(const LatencyHistogram& earlier);

 private:
  int width_;
  std::vector<std::int64_t> buckets_; ///< last bucket = overflow
  std::int64_t count_ = 0;
};

/// Kinds of switch-to-switch hops, for SurePath's escape-usage accounting.
enum class HopKind {
  Routing, ///< taken from the base routing's candidates (CRout)
  Escape,  ///< escape subnetwork chosen although routing candidates existed
  Forced   ///< escape chosen because no routing candidate existed (§3)
};

/// Fabric-wide event counts, cumulative from cycle 0. A window is the
/// difference of two snapshots.
struct MetricTotals {
  std::int64_t generated = 0;      ///< packets enqueued at a server
  std::int64_t injected = 0;       ///< packets whose first phit left a server
  std::int64_t consumed = 0;       ///< packets delivered to a server
  std::int64_t consumed_phits = 0; ///< delivered payload
  std::int64_t latency_sum = 0;    ///< generation-to-delivery, summed
  std::int64_t hops[3] = {};       ///< switch hops, indexed by HopKind
  std::int64_t escape_entries = 0; ///< SurePath activations
  std::int64_t credit_stalls = 0;  ///< injections starved of credits
  std::int64_t link_phits = 0;     ///< phits over all switch-switch links

  std::int64_t hops_of(HopKind k) const { return hops[static_cast<int>(k)]; }
  std::int64_t hops_total() const { return hops[0] + hops[1] + hops[2]; }

  MetricTotals operator-(const MetricTotals& earlier) const;
};

/// Cumulative per-switch event counts.
struct SwitchCounters {
  std::int64_t injections = 0;     ///< packets its servers injected
  std::int64_t ejections = 0;      ///< packets its servers consumed
  std::int64_t escape_entries = 0; ///< SurePath activations it granted
  std::int64_t credit_stalls = 0;  ///< its servers' credit-starved attempts
};

/// One directed link of a hot-link ranking, load normalised to
/// phits/cycle.
struct HotLink {
  SwitchId from = kInvalid;
  Port port = kInvalid;
  SwitchId to = kInvalid;
  double load = 0; ///< phits per cycle, in [0, 1]
};

/// The counters of one simulation. All hooks are called from serial step
/// phases only (injection loop, alloc commit, link commit, consume
/// events), so the store needs no synchronisation.
class SimMetrics {
 public:
  SimMetrics() = default;

  /// Must be called before the simulation starts: sizes the per-switch
  /// counters for \p g's switches (\p servers_per_switch servers each),
  /// one phit slot per directed switch port of \p g, and \p num_vcs
  /// per-VC grant counters.
  void configure(const Graph& g, int servers_per_switch, int packet_length,
                 int num_vcs);

  /// Opens the measurement window at cycle \p now: snapshots the totals
  /// and resets the per-server generated phits behind jain().
  void begin_window(Cycle now);

  /// Closes the measurement window at cycle \p now: the window results
  /// below become the difference against the begin_window snapshot.
  void end_window(Cycle now);

  // --- hooks: one per engine event ------------------------------------------

  /// A server enqueued a freshly generated packet.
  void on_generated(ServerId src);

  /// A packet's first phit left a server attached to \p sw.
  void on_inject(SwitchId sw) {
    ++totals_.injected;
    ++switches_[static_cast<std::size_t>(sw)].injections;
  }

  /// A server at \p sw had a packet and a free link but no VC with a
  /// packet's worth of credits.
  void on_credit_stall(SwitchId sw) {
    ++totals_.credit_stalls;
    ++switches_[static_cast<std::size_t>(sw)].credit_stalls;
  }

  /// A packet was fully consumed by its destination server.
  /// \p created is its generation timestamp.
  void on_consumed(ServerId dst, Cycle created, Cycle now);

  /// The allocator at \p sw granted a switch-port output on \p out_vc.
  /// \p entered_escape marks a SurePath activation: the grant moved a
  /// packet that was *not* yet on an escape VC onto one. Inline: this
  /// fires once per grant, deep in the engine's per-cycle hot path.
  void on_grant(SwitchId sw, Vc out_vc, HopKind kind, bool entered_escape) {
    ++totals_.hops[static_cast<int>(kind)];
    ++vc_grants_[static_cast<std::size_t>(out_vc)];
    if (entered_escape) {
      ++totals_.escape_entries;
      ++switches_[static_cast<std::size_t>(sw)].escape_entries;
    }
  }

  /// \p phits left (sw, port) towards the neighbouring switch.
  void on_transmit(SwitchId sw, Port port, int phits) {
    totals_.link_phits += phits;
    link_phits_[link_index(sw, port)] += phits;
  }

  // --- cumulative counters (from cycle 0) -----------------------------------

  const MetricTotals& totals() const { return totals_; }

  /// Latencies of every packet consumed so far.
  const LatencyHistogram& total_latency_histogram() const { return hist_; }

  /// Per-switch counters, indexed by switch id.
  const std::vector<SwitchCounters>& switch_counters() const {
    return switches_;
  }

  /// Phits per directed switch link, in (switch, port) order.
  const std::vector<std::int64_t>& link_phits() const { return link_phits_; }

  /// Grants per output VC.
  const std::vector<std::int64_t>& vc_grants() const { return vc_grants_; }

  /// Packets consumed since the start of the simulation.
  std::int64_t total_consumed_packets() const { return totals_.consumed; }

  /// Packets generated since the start of the simulation.
  std::int64_t total_generated_packets() const { return totals_.generated; }

  /// The \p n busiest directed links of \p g (the graph passed to
  /// configure) since the link_phits() snapshot \p since, as loads over
  /// \p cycles; links that carried nothing are left out.
  std::vector<HotLink> hottest_links(const Graph& g,
                                     const std::vector<std::int64_t>& since,
                                     int n, Cycle cycles) const;

  // --- window results (valid after end_window) ------------------------------

  /// Accepted load in phits/cycle/server over the window.
  double accepted_load() const;

  /// Generated load in phits/cycle/server over the window (== offered when
  /// injection queues never backpressure).
  double generated_load() const;

  /// Mean latency (creation to consumption) of packets consumed in-window.
  double avg_latency() const;

  /// Jain index of per-server generated phits over the window.
  double jain() const;

  /// Packets consumed inside the window.
  std::int64_t consumed_packets() const { return window_.consumed; }

  /// Fraction of switch hops that used the escape subnetwork (in-window).
  double escape_hop_fraction() const;

  /// Fraction of switch hops that were forced (no routing candidate).
  double forced_hop_fraction() const;

  /// The latency histogram for in-window consumptions.
  const LatencyHistogram& latency_histogram() const { return window_hist_; }

  /// Window length in cycles (0 while the window is open).
  Cycle window_cycles() const;

 private:
  bool in_window() const { return window_start_ >= 0 && window_end_ < 0; }

  std::size_t link_index(SwitchId sw, Port port) const {
    return link_base_[static_cast<std::size_t>(sw)] +
           static_cast<std::size_t>(port);
  }

  ServerId num_servers_ = 0;
  int servers_per_switch_ = 1;
  int packet_length_ = 0;
  Cycle window_start_ = -1;
  Cycle window_end_ = -1;

  MetricTotals totals_;
  LatencyHistogram hist_;
  std::vector<SwitchCounters> switches_;
  std::vector<std::size_t> link_base_; ///< per-switch offset into link_phits_
  std::vector<std::int64_t> link_phits_;
  std::vector<std::int64_t> vc_grants_;

  std::vector<std::int64_t> generated_phits_; ///< per server, in-window
  MetricTotals begin_totals_;    ///< snapshots taken by begin_window
  LatencyHistogram begin_hist_;
  MetricTotals window_;          ///< end minus begin, set by end_window
  LatencyHistogram window_hist_;
};

} // namespace hxsp
