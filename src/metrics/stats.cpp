#include "metrics/stats.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hxsp {

double jain_index(const std::vector<std::int64_t>& x) {
  if (x.empty()) return 1.0;
  double sum = 0, sum2 = 0;
  for (std::int64_t v : x) {
    const double d = static_cast<double>(v);
    sum += d;
    sum2 += d * d;
  }
  if (sum2 == 0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sum2);
}

LatencyHistogram::LatencyHistogram(int bucket_width, int num_buckets)
    : width_(bucket_width),
      buckets_(static_cast<std::size_t>(num_buckets) + 1, 0) {
  HXSP_CHECK(bucket_width >= 1 && num_buckets >= 1);
}

void LatencyHistogram::add(Cycle latency) {
  if (latency < 0) latency = 0;
  std::size_t b = static_cast<std::size_t>(latency / width_);
  if (b >= buckets_.size()) b = buckets_.size() - 1;
  ++buckets_[b];
  ++count_;
}

Cycle LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return -1;
  const auto target = static_cast<std::int64_t>(p * static_cast<double>(count_));
  std::int64_t acc = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    acc += buckets_[b];
    if (acc > target) return static_cast<Cycle>((b + 1) * static_cast<std::size_t>(width_));
  }
  return static_cast<Cycle>(buckets_.size() * static_cast<std::size_t>(width_));
}

void LatencyHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

LatencyHistogram& LatencyHistogram::operator-=(
    const LatencyHistogram& earlier) {
  HXSP_CHECK(width_ == earlier.width_ &&
             buckets_.size() == earlier.buckets_.size());
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    buckets_[b] -= earlier.buckets_[b];
  count_ -= earlier.count_;
  return *this;
}

MetricTotals MetricTotals::operator-(const MetricTotals& earlier) const {
  MetricTotals d;
  d.generated = generated - earlier.generated;
  d.injected = injected - earlier.injected;
  d.consumed = consumed - earlier.consumed;
  d.consumed_phits = consumed_phits - earlier.consumed_phits;
  d.latency_sum = latency_sum - earlier.latency_sum;
  for (int k = 0; k < 3; ++k) d.hops[k] = hops[k] - earlier.hops[k];
  d.escape_entries = escape_entries - earlier.escape_entries;
  d.credit_stalls = credit_stalls - earlier.credit_stalls;
  d.link_phits = link_phits - earlier.link_phits;
  return d;
}

void SimMetrics::configure(const Graph& g, int servers_per_switch,
                           int packet_length, int num_vcs) {
  HXSP_CHECK(servers_per_switch >= 1 && num_vcs >= 1);
  const std::size_t n = static_cast<std::size_t>(g.num_switches());
  num_servers_ = static_cast<ServerId>(n) * servers_per_switch;
  servers_per_switch_ = servers_per_switch;
  packet_length_ = packet_length;
  generated_phits_.assign(static_cast<std::size_t>(num_servers_), 0);
  switches_.assign(n, SwitchCounters{});
  link_base_.assign(n + 1, 0);
  for (SwitchId s = 0; s < g.num_switches(); ++s)
    link_base_[static_cast<std::size_t>(s) + 1] =
        link_base_[static_cast<std::size_t>(s)] +
        static_cast<std::size_t>(g.degree(s));
  link_phits_.assign(link_base_.back(), 0);
  vc_grants_.assign(static_cast<std::size_t>(num_vcs), 0);
}

void SimMetrics::begin_window(Cycle now) {
  window_start_ = now;
  window_end_ = -1;
  std::fill(generated_phits_.begin(), generated_phits_.end(), 0);
  begin_totals_ = totals_;
  begin_hist_ = hist_;
  window_ = MetricTotals{};
  window_hist_.reset();
}

void SimMetrics::end_window(Cycle now) {
  HXSP_CHECK(window_start_ >= 0 && now > window_start_);
  window_end_ = now;
  window_ = totals_ - begin_totals_;
  // In place (the assignment reuses the buckets): closing the window
  // allocates nothing.
  window_hist_ = hist_;
  window_hist_ -= begin_hist_;
}

void SimMetrics::on_generated(ServerId src) {
  ++totals_.generated;
  if (in_window())
    generated_phits_[static_cast<std::size_t>(src)] += packet_length_;
}

void SimMetrics::on_consumed(ServerId dst, Cycle created, Cycle now) {
  ++totals_.consumed;
  totals_.consumed_phits += packet_length_;
  totals_.latency_sum += now - created;
  hist_.add(now - created);
  ++switches_[static_cast<std::size_t>(dst / servers_per_switch_)].ejections;
}

std::vector<HotLink> SimMetrics::hottest_links(
    const Graph& g, const std::vector<std::int64_t>& since, int n,
    Cycle cycles) const {
  HXSP_CHECK(since.size() == link_phits_.size() && cycles > 0);
  std::vector<HotLink> all;
  for (SwitchId s = 0; s < g.num_switches(); ++s) {
    for (Port p = 0; p < g.degree(s); ++p) {
      const std::size_t i = link_index(s, p);
      const std::int64_t v = link_phits_[i] - since[i];
      if (v == 0) continue;
      all.push_back({s, p, g.port(s, p).neighbor,
                     static_cast<double>(v) / static_cast<double>(cycles)});
    }
  }
  const std::size_t keep =
      std::min<std::size_t>(all.size(), static_cast<std::size_t>(n));
  std::partial_sort(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
      [](const HotLink& a, const HotLink& b) { return a.load > b.load; });
  all.resize(keep);
  return all;
}

Cycle SimMetrics::window_cycles() const {
  return window_end_ < 0 ? 0 : window_end_ - window_start_;
}

double SimMetrics::accepted_load() const {
  const Cycle c = window_cycles();
  if (c <= 0 || num_servers_ == 0) return 0.0;
  return static_cast<double>(window_.consumed_phits) /
         (static_cast<double>(c) * static_cast<double>(num_servers_));
}

double SimMetrics::generated_load() const {
  const Cycle c = window_cycles();
  if (c <= 0 || num_servers_ == 0) return 0.0;
  std::int64_t total = 0;
  for (std::int64_t v : generated_phits_) total += v;
  return static_cast<double>(total) /
         (static_cast<double>(c) * static_cast<double>(num_servers_));
}

double SimMetrics::avg_latency() const {
  if (window_.consumed == 0) return 0.0;
  return static_cast<double>(window_.latency_sum) /
         static_cast<double>(window_.consumed);
}

double SimMetrics::jain() const { return jain_index(generated_phits_); }

double SimMetrics::escape_hop_fraction() const {
  const std::int64_t total = window_.hops_total();
  if (total == 0) return 0.0;
  return static_cast<double>(window_.hops_of(HopKind::Escape) +
                             window_.hops_of(HopKind::Forced)) /
         static_cast<double>(total);
}

double SimMetrics::forced_hop_fraction() const {
  const std::int64_t total = window_.hops_total();
  if (total == 0) return 0.0;
  return static_cast<double>(window_.hops_of(HopKind::Forced)) /
         static_cast<double>(total);
}

} // namespace hxsp
