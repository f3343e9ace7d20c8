#pragma once
/// \file minimal.hpp
/// Minimal (shortest-path) routing over BFS distance tables.
///
/// "Very general routing algorithms, such as Minimal, keep working, only
/// requiring to run a BFS to recompute the routing tables" (paper §1).
/// Every alive neighbour one hop closer to the destination is a candidate
/// with no penalty — fully adaptive among minimal next hops.

#include "routing/mechanism.hpp"

namespace hxsp {

/// Appends, in ascending port order, every alive port of \p sw whose
/// neighbour is one hop closer to \p target (nothing when \p target is
/// \p sw or unreachable). Shared by Minimal and by both Valiant phases.
///
/// On a HyperX every hop changes one coordinate, so d(n, t) >=
/// hamming(n, t) for any fault set. When d(sw, t) equals the Hamming
/// distance h, a neighbour that does not fix one of the h differing
/// coordinates is still >= h away and cannot be at d - 1: only the h
/// fixers are probed (dimensions ascending = ascending port blocks, the
/// same order as the full scan). Pairs whose every minimal path is
/// severed (d > h) and non-HyperX graphs scan every alive port.
void minimal_next_hops(const NetworkContext& ctx, SwitchId sw,
                       SwitchId target, std::vector<PortCand>& out);

/// Table-based minimal routing; works on any topology, with or without
/// faults (distances already reflect the fault set).
class MinimalAlgorithm final : public RouteAlgorithm {
 public:
  std::string name() const override { return "minimal"; }

  void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
             std::vector<PortCand>& out) const override;

  int max_hops(const NetworkContext& ctx) const override;
};

} // namespace hxsp
