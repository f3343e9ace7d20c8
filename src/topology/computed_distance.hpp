#pragma once
/// \file computed_distance.hpp
/// O(N)-memory distance provider for HyperX: algebraic hop counts with an
/// exact cached-BFS fallback near faults.
///
/// On a healthy HyperX the graph distance between two switches is their
/// Hamming distance h (the number of differing coordinates), and every
/// minimal path stays inside the *minimal subcube* of the pair: the 2^h
/// switches whose coordinate in each differing dimension is one of the
/// two endpoints' (and equal to both elsewhere). Faults only ever
/// lengthen distances, so:
///
///   * d(a, b) >= hamming(a, b) always;
///   * if no switch of the minimal subcube is *dirty* (incident to a dead
///     link), every link of some minimal path is alive, so
///     d(a, b) == hamming(a, b) exactly.
///
/// Note the criterion is per-subcube-switch, not per-endpoint: with
/// h >= 3 a fault set can sever all minimal paths by killing only links
/// *interior* to the subcube while both endpoints keep every port — the
/// parity trick that works on bipartite graphs is unavailable because
/// K_k has triangles. The provider-vs-dense parity tests construct that
/// exact adversarial case.
///
/// A dirty subcube does not yet mean the distance grew: the dirty switch
/// usually has plenty of surviving ports, and some minimal path through
/// it is still intact. Because every minimal path visits only subcube
/// corners (each hop fixes one differing dimension), "an intact minimal
/// path exists" is decidable exactly by a reachability DP over the 2^h
/// corners using only alive links — d(a, b) == h iff the DP reaches b.
/// That middle tier keeps queries O(h^2 * 2^h) in the common
/// dirty-but-undamaged case; only pairs whose every minimal path is
/// genuinely severed (so d > h) pay for BFS.
///
/// Those last pairs fall back to an exact BFS row anchored at the queried
/// source, kept in a small LRU row cache (deterministic eviction:
/// least-recently-used by a monotone access tick, ties impossible since
/// ticks are unique). Routing anchors its probes at a packet's src/dst
/// switch (see DistRow), so fallback rows are reused across the whole
/// candidate scan. All queries are exact, therefore simulation output
/// never depends on cache state, eviction order, or which tier answered.
///
/// Minimal routing asks for few distances per routed head: the switch's
/// own, then one per *coordinate fixer* (the <= dims neighbours that fix
/// a differing coordinate) — not one per neighbour — whenever that
/// distance equals the Hamming distance (see minimal_next_hops in
/// routing/minimal.hpp). Only severed pairs probe every alive neighbour.

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "topology/distance.hpp"
#include "topology/hyperx.hpp"

namespace hxsp {

/// Computed distances over a HyperX (any fault state). O(N) memory:
/// a dirty bitset plus a bounded row cache. Point queries cost O(dims)
/// healthy; near faults O(min(#dirty * dims, 2^h)) for the cleanliness
/// check plus an amortized cached BFS.
class ComputedHyperXDistance final : public DistanceProvider {
 public:
  /// Binds \p hx (must outlive the provider) and scans its current fault
  /// state. \p row_cache_rows bounds the BFS fallback cache.
  explicit ComputedHyperXDistance(const HyperX& hx, int row_cache_rows = 64);

  int at(SwitchId a, SwitchId b) const override;

  /// Never materializes rows: hot loops go through DistRow's at() path.
  const std::uint8_t* row_ptr(SwitchId) const override { return nullptr; }

  SwitchId num_switches() const override { return hx_->num_switches(); }

  bool connected() const override { return connected_; }

  /// Healthy: the number of dimensions (sides are all >= 2). Faulted:
  /// computed exactly by a full BFS sweep on first call and cached until
  /// the next rebuild — O(V*E), intended for stats and small graphs, not
  /// per-query use.
  int diameter() const override;

  /// Rescans the bound HyperX's fault state: dead-link count, the dirty
  /// set, connectivity; drops every cached row. O(V + E).
  void rebuild() override;

  // --- introspection (tests, diagnostics) ---------------------------------

  /// Dead links seen by the last rebuild().
  int num_dead_links() const { return num_dead_; }

  /// Switches incident to at least one dead link.
  int num_dirty_switches() const { return static_cast<int>(dirty_list_.size()); }

  /// BFS fallback rows built so far (cache misses; monotone).
  long fallback_rows_built() const;

  /// Dirty-subcube queries resolved by the intact-minimal-path DP without
  /// touching the BFS cache (monotone).
  long dp_resolved() const;

  /// True when at(a, b) is served algebraically (clean minimal subcube).
  bool algebraic(SwitchId a, SwitchId b) const {
    return num_dead_ == 0 || subcube_clean(a, b);
  }

 private:
  /// Subcube enumeration is capped at 2^16 probes; pairs differing in more
  /// dimensions use the dirty-list scan (always exact, never capped).
  static constexpr int kMaxSubcubeDims = 16;

  /// The minimal-path DP allocates its 2^h reachability table on the
  /// stack; wider pairs (never seen in practice — paper topologies have
  /// <= 3 dimensions) skip straight to the BFS fallback, which is exact
  /// for any width.
  static constexpr int kMaxDpDims = 10;

  struct CacheRow {
    SwitchId anchor = kInvalid;
    std::uint64_t tick = 0;           ///< last access (LRU key)
    std::vector<std::uint8_t> d;      ///< BFS row from anchor
  };

  /// True when no switch of the (a, b) minimal subcube is dirty.
  bool subcube_clean(SwitchId a, SwitchId b) const;

  /// True when some minimal a->b path uses only alive links (then
  /// d(a, b) == hamming(a, b) even though the subcube is dirty).
  bool minimal_path_intact(SwitchId a, SwitchId b) const;

  /// Exact distance via the row cache (builds the anchor row on miss).
  int fallback_at(SwitchId a, SwitchId b) const;

  const HyperX* hx_;
  std::vector<std::int64_t> stride_;  ///< id delta per +1 coordinate step
  int num_dead_ = 0;
  bool connected_ = true;
  std::vector<char> dirty_;           ///< [switch] incident to a dead link
  std::vector<SwitchId> dirty_list_;  ///< ascending ids of dirty switches
  int cache_rows_;

  // Fallback state; mu_ serializes the parallel stepping phase's queries.
  mutable std::mutex mu_;
  mutable std::vector<CacheRow> cache_;
  mutable std::uint64_t tick_ = 0;
  mutable long rows_built_ = 0;
  /// Atomic, not mutex-guarded: the DP tier never takes mu_, and the
  /// counter must not serialize concurrent candidate-phase queries.
  mutable std::atomic<long> dp_resolved_{0};
  mutable int faulted_diameter_ = -1; ///< lazy (-1 = not yet computed)
};

/// Provider selection policy for the harness.
enum class DistanceProviderKind {
  Auto,     ///< dense up to kDenseDistanceSwitchLimit, computed beyond
  Dense,    ///< force the O(N^2) reference table
  Computed, ///< force the algebraic provider (HyperX only)
};

/// Dense tables above this switch count are both slow to build and heavy
/// (16k switches = 256 MB); Auto switches to the computed provider there.
/// Every paper-scale configuration (8x8x8 = 512 switches) stays dense, so
/// provider selection cannot perturb existing goldens even in principle —
/// and the parity suite proves value-equality anyway.
constexpr SwitchId kDenseDistanceSwitchLimit = 4096;

/// Builds the distance provider for \p hx per \p kind (see above).
/// The HyperX must outlive the provider.
std::unique_ptr<DistanceProvider> make_distance_provider(
    const HyperX& hx, DistanceProviderKind kind = DistanceProviderKind::Auto);

} // namespace hxsp
