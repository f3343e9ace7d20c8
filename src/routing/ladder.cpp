#include "routing/ladder.hpp"

namespace hxsp {

LadderMechanism::LadderMechanism(std::unique_ptr<RouteAlgorithm> algo,
                                 int vcs_per_step, std::string display)
    : algo_(std::move(algo)), vcs_per_step_(vcs_per_step),
      display_(std::move(display)) {
  HXSP_CHECK(algo_ != nullptr);
  HXSP_CHECK(vcs_per_step_ == 1 || vcs_per_step_ == 2);
}

Vc LadderMechanism::rung(int hops, int num_vcs) const {
  // Saturate at the top rung: routes longer than the ladder keep using the
  // last VC(s). In fault-free runs max_hops() fits the configured VCs (the
  // tests assert this); under faults the ladder's guarantee is void, which
  // is precisely the paper's argument for SurePath.
  const int step = hops * vcs_per_step_;
  const int top = num_vcs - vcs_per_step_;
  return static_cast<Vc>(step > top ? top : step);
}

void LadderMechanism::candidates(const NetworkContext& ctx, const Packet& p,
                                 SwitchId sw, RouteScratch& scratch,
                                 std::vector<Candidate>& out) const {
  scratch.ports.clear();
  algo_->ports(ctx, p, sw, scratch.ports);
  const Vc base = rung(p.hops, ctx.num_vcs);
  const std::uint32_t vcs = vc_run(base, base + vcs_per_step_ - 1);
  for (const PortCand& pc : scratch.ports)
    out.push_back({pc.port, vcs, pc.penalty, false, false});
}

void LadderMechanism::injection_vcs(const NetworkContext&, const Packet&,
                                    std::vector<Vc>& out) const {
  for (int v = 0; v < vcs_per_step_; ++v) out.push_back(static_cast<Vc>(v));
}

void LadderMechanism::commit_hop(const NetworkContext& ctx, Packet& p,
                                 SwitchId from, const Candidate& cand) const {
  algo_->commit(ctx, p, from, {cand.port, cand.penalty, false});
  ++p.hops;
}

} // namespace hxsp
