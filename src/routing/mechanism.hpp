#pragma once
/// \file mechanism.hpp
/// Routing interfaces.
///
/// Two layers, mirroring the paper's Table 4:
///  * RouteAlgorithm — *which neighbours* a packet may take next and at what
///    penalty (Minimal, DOR, Valiant, Omnidimensional, Polarized). Pure
///    port-level logic, independent of virtual-channel management.
///  * RoutingMechanism — a RouteAlgorithm plus VC management: a Ladder
///    (hop-indexed VCs, the classic deadlock avoidance of OmniWAR and
///    Polarized) or SurePath (CRout/CEsc split with the Up/Down escape).
///
/// The router consults the mechanism once per eligible head packet and
/// receives port-grouped (port, VC set, penalty) candidates; it then
/// applies the paper's Q+P single-request allocation.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "topology/distance.hpp"
#include "topology/graph.hpp"
#include "topology/hyperx.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace hxsp {

class EscapeUpDown; // core/escape_updown.hpp

/// Everything a routing decision may consult. Owned by the harness; all
/// pointers outlive the simulation. `hyperx` and `escape` may be null for
/// mechanisms that do not need them.
struct NetworkContext {
  const Graph* graph = nullptr;
  const HyperX* hyperx = nullptr;      ///< null for generic topologies
  const DistanceProvider* dist = nullptr;
  const EscapeUpDown* escape = nullptr;///< null unless SurePath
  int num_vcs = 0;
  int packet_length = 0;
};

/// A port-level route candidate produced by a RouteAlgorithm.
struct PortCand {
  Port port = kInvalid;
  int penalty = 0;     ///< P, in phits (paper §3)
  bool deroute = false;///< non-minimal hop (consumes Omni budget)
};

/// A port-grouped candidate handed to the allocator: one output port, the
/// set of its VCs the packet may request there, and the shared penalty.
/// Every (port, vc) pair a mechanism allows appears in exactly one entry.
///
/// Order invariant: expanding a candidate list entry by entry, each entry's
/// VCs in ascending order, yields the (port, vc) sequence of the per-VC
/// formulation (SurePath: each routing port's CRout run, then the escape
/// ports on CEsc; Ladder: each port's rung VCs). The allocator scans and
/// breaks ties in exactly that order, so grouping is invisible to every
/// RNG draw and result — it only lets the scan test a port's feasibility
/// mask and crossbar once instead of once per VC.
struct Candidate {
  Port port = kInvalid;
  std::uint32_t vcs = 0; ///< bit v: VC v of `port` may be requested
  int penalty = 0;      ///< P, in phits
  bool escape = false;  ///< candidate lives on the escape subnetwork (CEsc)
  bool escape_down = false; ///< escape hop that is a black Down step
};

/// The VC-set bit of \p v (VCs are bounded by 32, see SimConfig::num_vcs).
inline std::uint32_t vc_bit(Vc v) { return 1u << static_cast<unsigned>(v); }

/// The VC set {lo, lo+1, ..., hi}; requires 0 <= lo <= hi < 32.
inline std::uint32_t vc_run(Vc lo, Vc hi) {
  return (~0u >> static_cast<unsigned>(31 - hi)) &
         (~0u << static_cast<unsigned>(lo));
}

/// The lowest VC of the non-empty set \p vcs.
inline Vc lowest_vc(std::uint32_t vcs) {
  return static_cast<Vc>(__builtin_ctz(vcs));
}

/// An escape-subnetwork candidate produced by EscapeUpDown for SurePath.
struct EscapeCand {
  Port port = kInvalid;
  int penalty = 0;
  bool down_black = false; ///< black Down step (sets the strict-phase bit)
};

/// Caller-owned scratch buffers for RoutingMechanism::candidates(). Keeping
/// them out of the (shared, const) mechanism object is what makes the
/// candidate phase safe to run from several router partitions at once: each
/// Router owns one RouteScratch, so concurrent candidates() calls never
/// touch common mutable state.
struct RouteScratch {
  std::vector<PortCand> ports;    ///< RouteAlgorithm::ports output
  std::vector<EscapeCand> escape; ///< EscapeUpDown::candidates output
};

/// Port-level routing logic. Stateless; per-packet state lives in the
/// Packet header fields and is updated through the hooks below.
class RouteAlgorithm {
 public:
  virtual ~RouteAlgorithm() = default;

  /// Short identifier ("minimal", "omni", "polarized", ...).
  virtual std::string name() const = 0;

  /// Appends the legal next-hop ports for \p p at switch \p sw. Never
  /// called when sw == p.dst_switch (the router ejects directly). Faulty
  /// ports must not be returned.
  virtual void ports(const NetworkContext& ctx, const Packet& p, SwitchId sw,
                     std::vector<PortCand>& out) const = 0;

  /// Called once when the packet is generated (Valiant draws its
  /// intermediate here).
  virtual void on_inject(const NetworkContext&, Packet&, Rng&) const {}

  /// Called when the packet is enqueued at a router's input buffer
  /// (Valiant flips to phase 2 at the intermediate).
  virtual void on_arrival(const NetworkContext&, Packet&, SwitchId) const {}

  /// Called when a switch-to-switch hop is granted (Omnidimensional counts
  /// deroutes here); arguments: context, packet, source switch, candidate.
  virtual void commit(const NetworkContext&, Packet&, SwitchId,
                      const PortCand&) const {}

  /// Upper bound on route length in a fault-free network, used for ladder
  /// sizing checks (e.g. 2n for Omnidimensional with m = n).
  virtual int max_hops(const NetworkContext& ctx) const = 0;
};

/// RouteAlgorithm + VC management = what the simulator actually runs.
class RoutingMechanism {
 public:
  virtual ~RoutingMechanism() = default;

  /// Display name matching the paper ("Minimal", "OmniSP", ...).
  virtual std::string name() const = 0;

  /// Appends port-grouped candidates for head packet \p p at switch
  /// \p sw (one entry per port, penalty and escape kind, in the order the
  /// Candidate invariant fixes), using \p scratch for intermediate
  /// buffers (cleared here; the caller only provides the storage). Not
  /// called at the destination switch (router ejects). Must be safe to
  /// call concurrently from different threads as long as each call uses a
  /// distinct \p scratch — the parallel stepping phase relies on this.
  virtual void candidates(const NetworkContext& ctx, const Packet& p,
                          SwitchId sw, RouteScratch& scratch,
                          std::vector<Candidate>& out) const = 0;

  /// Legal injection VCs for a fresh packet (server side).
  virtual void injection_vcs(const NetworkContext& ctx, const Packet& p,
                             std::vector<Vc>& out) const = 0;

  /// Forwards to the algorithm's on_inject.
  virtual void on_inject(const NetworkContext&, Packet&, Rng&) const {}

  /// Forwards to the algorithm's on_arrival.
  virtual void on_arrival(const NetworkContext&, Packet&, SwitchId) const {}

  /// Called at grant time for switch-to-switch hops: updates hop counters
  /// and mechanism-specific state (escape flags, deroute budget). The
  /// granted entry's `vcs` holds exactly the VC the packet moved to.
  virtual void commit_hop(const NetworkContext&, Packet&, SwitchId from,
                          const Candidate& cand) const = 0;

  /// True when this mechanism needs the Up/Down escape subnetwork.
  virtual bool needs_escape() const { return false; }
};

} // namespace hxsp
