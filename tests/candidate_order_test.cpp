/// \file candidate_order_test.cpp
/// The Candidate order invariant (routing/mechanism.hpp): every mechanism
/// emits port-grouped entries whose expansion — entry by entry, each
/// entry's VCs ascending — is exactly the per-VC (port, vc, penalty,
/// escape, escape_down) sequence the allocator's tie-breaking was defined
/// on. The reference expansion below is written per VC, independently of
/// the mechanisms' VC-set code, and compared on faulted fabrics for every
/// mechanism and CRout VC policy over a spread of packet states.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/surepath.hpp"
#include "routing/factory.hpp"
#include "routing/ladder.hpp"
#include "test_util.hpp"
#include "topology/faults.hpp"

namespace hxsp {
namespace {

using testutil::make_net;
using testutil::make_packet;
using testutil::TestNet;

/// One (port, vc) request option.
using Pair = std::tuple<Port, Vc, int, bool, bool>;

std::vector<Pair> expand(const std::vector<Candidate>& cands) {
  std::vector<Pair> out;
  for (const Candidate& c : cands) {
    EXPECT_NE(c.vcs, 0u) << "entry with an empty VC set on port " << c.port;
    for (Vc v = 0; v < 32; ++v)
      if ((c.vcs >> v) & 1u)
        out.emplace_back(c.port, v, c.penalty, c.escape, c.escape_down);
  }
  return out;
}

/// The per-VC candidate sequence of \p mech for \p p at \p sw: one pair per
/// (port, VC) in port-list order, VCs ascending within a port.
std::vector<Pair> reference(const TestNet& t, const RoutingMechanism& mech,
                            const Packet& p, SwitchId sw) {
  const NetworkContext& ctx = t.ctx;
  std::vector<Pair> out;
  std::vector<PortCand> ports;
  if (const auto* ladder = dynamic_cast<const LadderMechanism*>(&mech)) {
    // Table 4: Minimal climbs two VCs per hop, the other ladders one.
    const int step = mech.name() == "Minimal" ? 2 : 1;
    ladder->algorithm().ports(ctx, p, sw, ports);
    const int base = std::min(int{p.hops} * step, ctx.num_vcs - step);
    for (const PortCand& pc : ports)
      for (int v = base; v < base + step; ++v)
        out.emplace_back(pc.port, v, pc.penalty, false, false);
    return out;
  }
  const auto& sp = dynamic_cast<const SurePathMechanism&>(mech);
  const Vc top = ctx.num_vcs - 2;
  if (!p.in_escape) {
    sp.algorithm().ports(ctx, p, sw, ports);
    Vc lo = 0, hi = top;
    const CRoutVcPolicy policy = sp.resolved_policy(ctx);
    if (policy == CRoutVcPolicy::Monotone) lo = std::min(p.cur_vc, top);
    if (policy == CRoutVcPolicy::Rung) lo = hi = std::min<Vc>(p.hops, top);
    for (const PortCand& pc : ports)
      for (Vc v = lo; v <= hi; ++v)
        out.emplace_back(pc.port, v, pc.penalty, false, false);
  }
  std::vector<EscapeCand> esc;
  ctx.escape->candidates(sw, p.dst_switch, p.escape_gone_down, esc);
  for (const EscapeCand& e : esc)
    out.emplace_back(e.port, ctx.num_vcs - 1, e.penalty, true, e.down_black);
  return out;
}

std::vector<std::string> all_mechanisms() {
  std::vector<std::string> names = mechanism_names();
  for (const char* sp : {"omnisp", "polsp"})
    for (const char* policy : {"free", "monotone", "rung"})
      names.push_back(std::string(sp) + "@" + policy);
  names.push_back("escape");
  return names;
}

/// Compares the grouped and per-VC sequences for every mechanism, every
/// ordered switch pair and a spread of header states on \p t.
void check_fabric(const TestNet& t) {
  RouteScratch scratch;
  std::vector<Candidate> cands;
  const SwitchId n = t.hx->num_switches();
  for (const std::string& name : all_mechanisms()) {
    SCOPED_TRACE(name);
    const auto mech = make_mechanism(name);
    const bool surepath = mech->needs_escape();
    int compared = 0;
    for (SwitchId src = 0; src < n; ++src) {
      for (SwitchId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        Packet p = make_packet(t, src, dst);
        Rng rng(static_cast<std::uint64_t>(src * n + dst + 1));
        mech->on_inject(t.ctx, p, rng);
        // The packet's state at its source: hop count (ladder rungs),
        // current VC (Monotone), deroutes taken (Omnidimensional budget)
        // and, under SurePath, the escape flags.
        for (const int hops : {0, 2, 9}) {
          for (const Vc cur_vc : {0, 2}) {
            for (const int deroutes : {0, 1}) {
              for (int esc = 0; esc < (surepath ? 3 : 1); ++esc) {
                p.hops = static_cast<std::uint16_t>(hops);
                p.cur_vc = cur_vc;
                p.deroutes = static_cast<std::uint8_t>(deroutes);
                p.in_escape = esc > 0;
                p.escape_gone_down = esc > 1;
                mech->on_arrival(t.ctx, p, src);
                cands.clear();
                mech->candidates(t.ctx, p, src, scratch, cands);
                ASSERT_EQ(expand(cands), reference(t, *mech, p, src))
                    << src << "->" << dst << " hops=" << hops
                    << " cur_vc=" << cur_vc << " deroutes=" << deroutes
                    << " esc=" << esc;
                ++compared;
              }
            }
          }
        }
      }
    }
    EXPECT_GT(compared, 0);
  }
}

/// \p t with \p faults random links failed (kept connected) and its tables
/// rebuilt.
void fail_random_links(TestNet& t, int faults, std::uint64_t seed) {
  Rng rng(seed);
  apply_faults(t.hx->graph(), random_fault_links(t.hx->graph(), faults, rng,
                                                 /*keep_connected=*/true));
  t.rebuild();
}

TEST(CandidateOrder, GroupedEntriesExpandToPerVcSequence2D) {
  TestNet t = make_net(2, 4, /*num_vcs=*/4);
  fail_random_links(t, 6, 11);
  check_fabric(t);
}

TEST(CandidateOrder, GroupedEntriesExpandToPerVcSequence3D) {
  TestNet t = make_net(3, 3, /*num_vcs=*/4);
  fail_random_links(t, 5, 12);
  check_fabric(t);
}

} // namespace
} // namespace hxsp
