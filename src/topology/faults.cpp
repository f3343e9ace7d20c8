#include "topology/faults.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "util/check.hpp"

namespace hxsp {

std::vector<LinkId> random_fault_sequence(const Graph& g, Rng& rng) {
  std::vector<LinkId> seq(static_cast<std::size_t>(g.num_links()));
  for (LinkId l = 0; l < g.num_links(); ++l) seq[static_cast<std::size_t>(l)] = l;
  rng.shuffle(seq);
  return seq;
}

std::vector<LinkId> random_fault_links(const Graph& g, int count, Rng& rng,
                                       bool keep_connected) {
  HXSP_CHECK(count >= 0 && count <= g.num_links());
  const auto seq = random_fault_sequence(g, rng);
  if (!keep_connected)
    return {seq.begin(), seq.begin() + count};

  // Trial removal on a scratch copy: skip any link whose loss would split
  // the network given the faults selected so far.
  Graph scratch = g;
  std::vector<LinkId> out;
  for (LinkId l : seq) {
    if (static_cast<int>(out.size()) == count) break;
    if (!scratch.link_alive(l)) continue;
    scratch.fail_link(l);
    if (scratch.connected()) {
      out.push_back(l);
    } else {
      scratch.restore_link(l);
    }
  }
  HXSP_CHECK_MSG(static_cast<int>(out.size()) == count,
                 "could not find enough faults preserving connectivity");
  return out;
}

namespace {
/// Collects every link of \p g whose two endpoints are both in \p members.
std::vector<LinkId> links_within(const Graph& g, const std::set<SwitchId>& members) {
  std::vector<LinkId> out;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto& e = g.link(l);
    if (members.count(e.a) && members.count(e.b)) out.push_back(l);
  }
  return out;
}
} // namespace

ShapeFault row_fault(const HyperX& hx, int dim, const std::vector<int>& fixed) {
  HXSP_CHECK(dim >= 0 && dim < hx.dims());
  HXSP_CHECK(static_cast<int>(fixed.size()) == hx.dims());
  std::set<SwitchId> members;
  std::vector<int> c = fixed;
  for (int a = 0; a < hx.side(dim); ++a) {
    c[static_cast<std::size_t>(dim)] = a;
    members.insert(hx.switch_at(c));
  }
  ShapeFault sf;
  sf.links = links_within(hx.graph(), members);
  sf.switches.assign(members.begin(), members.end());
  sf.suggested_root = sf.switches.front();
  return sf;
}

ShapeFault subcube_fault(const HyperX& hx, const std::vector<int>& start,
                         const std::vector<int>& extent) {
  HXSP_CHECK(static_cast<int>(start.size()) == hx.dims());
  HXSP_CHECK(static_cast<int>(extent.size()) == hx.dims());
  for (int i = 0; i < hx.dims(); ++i) {
    HXSP_CHECK(start[static_cast<std::size_t>(i)] >= 0 &&
               extent[static_cast<std::size_t>(i)] >= 1 &&
               start[static_cast<std::size_t>(i)] + extent[static_cast<std::size_t>(i)] <=
                   hx.side(i));
  }
  std::set<SwitchId> members;
  // Enumerate the sub-box by odometer.
  std::vector<int> c = start;
  while (true) {
    members.insert(hx.switch_at(c));
    int i = 0;
    for (; i < hx.dims(); ++i) {
      auto ui = static_cast<std::size_t>(i);
      if (++c[ui] < start[ui] + extent[ui]) break;
      c[ui] = start[ui];
    }
    if (i == hx.dims()) break;
  }
  ShapeFault sf;
  sf.links = links_within(hx.graph(), members);
  sf.switches.assign(members.begin(), members.end());
  sf.suggested_root = sf.switches.front();
  return sf;
}

ShapeFault star_fault(const HyperX& hx, SwitchId center, int segment) {
  HXSP_CHECK(center >= 0 && center < hx.num_switches());
  ShapeFault sf;
  sf.suggested_root = center;
  std::set<SwitchId> touched;
  std::vector<LinkId> all;
  for (int dim = 0; dim < hx.dims(); ++dim) {
    HXSP_CHECK_MSG(segment >= 2 && segment <= hx.side(dim),
                   "star segment must fit in every dimension");
    // Coordinate subset: the center's coordinate plus the smallest other
    // coordinates until `segment` members (the choice is symmetric inside
    // a complete-graph dimension, so "smallest first" is as good as any).
    const int own = hx.coord(center, dim);
    std::vector<int> chosen{own};
    for (int a = 0; a < hx.side(dim) && static_cast<int>(chosen.size()) < segment; ++a)
      if (a != own) chosen.push_back(a);

    std::set<SwitchId> members;
    std::vector<int> c = hx.coords(center);
    for (int a : chosen) {
      c[static_cast<std::size_t>(dim)] = a;
      members.insert(hx.switch_at(c));
    }

    for (LinkId l : links_within(hx.graph(), members)) all.push_back(l);
    touched.insert(members.begin(), members.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  sf.links = std::move(all);
  sf.switches.assign(touched.begin(), touched.end());
  return sf;
}

void apply_faults(Graph& g, const std::vector<LinkId>& links) {
  for (LinkId l : links) {
    HXSP_CHECK_MSG(l >= 0 && l < g.num_links(),
                   ("fault_links: link id " + std::to_string(l) +
                    " out of range, the topology has " +
                    std::to_string(g.num_links()) + " links")
                       .c_str());
    g.fail_link(l);
  }
}

} // namespace hxsp
