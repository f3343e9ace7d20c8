/// \file telemetry.cpp
/// TelemetryRegistry window bookkeeping (see telemetry.hpp).

#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstddef>

#include "telemetry/capture.hpp"
#include "util/check.hpp"

namespace hxsp {

bool operator==(const TelemetryFrame& a, const TelemetryFrame& b) {
  return a.window == b.window && a.start == b.start && a.end == b.end &&
         a.injected == b.injected && a.consumed == b.consumed &&
         a.consumed_phits == b.consumed_phits &&
         a.p50_latency == b.p50_latency && a.p99_latency == b.p99_latency &&
         a.hops_routing == b.hops_routing && a.hops_escape == b.hops_escape &&
         a.hops_forced == b.hops_forced &&
         a.escape_entries == b.escape_entries &&
         a.credit_stalls == b.credit_stalls && a.link_phits == b.link_phits &&
         a.link_max_phits == b.link_max_phits &&
         a.occupancy_hwm == b.occupancy_hwm;
}

bool operator==(const LinkWindowSeries& a, const LinkWindowSeries& b) {
  return a.sw == b.sw && a.port == b.port && a.to == b.to &&
         a.phits == b.phits && a.total == b.total;
}

TelemetryRegistry::TelemetryRegistry(const Graph& g, Cycle window)
    : window_(window),
      router_occupancy_hwm_(static_cast<std::size_t>(g.num_switches()), 0) {
  HXSP_CHECK(window > 0);
  std::size_t directed_links = 0;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    directed_links += static_cast<std::size_t>(g.degree(s));
  }
  prev_link_phits_.assign(directed_links, 0);
  if (directed_links <= kMaxLinkSeriesLinks) {
    links_.reserve(directed_links);
    for (SwitchId s = 0; s < g.num_switches(); ++s) {
      for (Port p = 0; p < g.degree(s); ++p) {
        LinkWindowSeries series;
        series.sw = s;
        series.port = p;
        series.to = g.port(s, p).neighbor;
        links_.push_back(std::move(series));
      }
    }
  }
}

void TelemetryRegistry::roll(Cycle now, const SimMetrics& m) {
  HXSP_CHECK(now > start_);
  TelemetryFrame f;
  f.window = static_cast<std::int64_t>(frames_.size());
  f.start = start_;
  f.end = now;
  const MetricTotals d = m.totals() - prev_;
  f.injected = d.injected;
  f.consumed = d.consumed;
  f.consumed_phits = d.consumed_phits;
  LatencyHistogram hist = m.total_latency_histogram();
  hist -= prev_hist_;
  if (hist.count() > 0) {
    f.p50_latency = hist.percentile(0.50);
    f.p99_latency = hist.percentile(0.99);
  }
  f.hops_routing = d.hops_of(HopKind::Routing);
  f.hops_escape = d.hops_of(HopKind::Escape);
  f.hops_forced = d.hops_of(HopKind::Forced);
  f.escape_entries = d.escape_entries;
  f.credit_stalls = d.credit_stalls;
  f.link_phits = d.link_phits;
  // Links are numbered in (switch, port) order both here and in the
  // series, so entry i of each is the same directed link.
  const std::vector<std::int64_t>& link_phits = m.link_phits();
  for (std::size_t i = 0; i < link_phits.size(); ++i) {
    const std::int64_t phits = link_phits[i] - prev_link_phits_[i];
    f.link_max_phits = std::max(f.link_max_phits, phits);
    if (!links_.empty()) {
      links_[i].phits.push_back(phits);
      links_[i].total += phits;
    }
  }
  f.occupancy_hwm = occupancy_hwm_;
  frames_.push_back(f);

  start_ = now;
  occupancy_hwm_ = 0;
  prev_ = m.totals();
  prev_hist_ = m.total_latency_histogram();
  prev_link_phits_ = link_phits;
}

void TelemetryRegistry::flush(Cycle now, const SimMetrics& m) {
  if (now > start_) roll(now, m);
}

void TelemetryRegistry::export_to(TelemetryCapture& out,
                                  const SimMetrics& m) const {
  out.window = window_;
  out.frames = frames_;
  out.links = links_;
  out.vc_grants = m.vc_grants();
  out.router_injections.clear();
  out.router_ejections.clear();
  out.router_escape_entries.clear();
  out.router_credit_stalls.clear();
  for (const SwitchCounters& sc : m.switch_counters()) {
    out.router_injections.push_back(sc.injections);
    out.router_ejections.push_back(sc.ejections);
    out.router_escape_entries.push_back(sc.escape_entries);
    out.router_credit_stalls.push_back(sc.credit_stalls);
  }
  out.router_occupancy_hwm = router_occupancy_hwm_;
}

} // namespace hxsp
