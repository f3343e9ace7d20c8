#include "routing/minimal.hpp"

namespace hxsp {

void minimal_next_hops(const NetworkContext& ctx, SwitchId sw,
                       SwitchId target, std::vector<PortCand>& out) {
  const Graph& g = *ctx.graph;
  // One anchored row serves the switch probe and every neighbour probe
  // (distances are symmetric); works for dense and computed providers.
  const DistRow row(*ctx.dist, target);
  const int d = row[sw];
  if (d == kUnreachable || d == 0) return;
  if (const HyperX* hx = ctx.hyperx) {
    HXSP_DCHECK(&hx->graph() == &g);
    const std::vector<int>& own = hx->coords(sw);
    const std::vector<int>& tgt = hx->coords(target);
    int h = 0;
    for (std::size_t i = 0; i < own.size(); ++i) h += own[i] != tgt[i];
    if (d == h) {
      for (std::size_t i = 0; i < own.size(); ++i) {
        if (own[i] == tgt[i]) continue;
        const Port q = hx->port_towards(sw, static_cast<int>(i), tgt[i]);
        const PortInfo& pi = g.port(sw, q);
        if (g.link_alive(pi.link) && row[pi.neighbor] == d - 1)
          out.push_back({q, 0, false});
      }
      return;
    }
  }
  for (const AlivePort& ap : g.alive_ports(sw))
    if (row[ap.neighbor] == d - 1) out.push_back({ap.port, 0, false});
}

void MinimalAlgorithm::ports(const NetworkContext& ctx, const Packet& p,
                             SwitchId sw, std::vector<PortCand>& out) const {
  minimal_next_hops(ctx, sw, p.dst_switch, out);
}

int MinimalAlgorithm::max_hops(const NetworkContext& ctx) const {
  return ctx.dist->diameter();
}

} // namespace hxsp
