#pragma once
/// \file router.hpp
/// Cycle-level input-queued router with virtual channels, virtual
/// cut-through flow control and the paper's Q+P single-request allocation.
///
/// Microarchitecture (paper Table 2):
///  * per-(port,VC) input FIFOs of 8 packets, credit-based backpressure;
///  * per-(port,VC) output FIFOs of 4 packets;
///  * crossbar with internal speedup 2 (a port moves up to 2 phits/cycle
///    internally) and 1 cycle of latency;
///  * links of 1 phit/cycle with 1 cycle of latency.
///
/// Virtual cut-through at packet granularity: each packet carries the
/// arrival cycles of its head and tail phits in the current buffer; it may
/// be allocated as soon as its head has arrived, transfers never outrun
/// the incoming phit stream (the drain-completion time takes a max with
/// the tail arrival), and credits are reserved whole-packet as classic
/// conservative VCT does.
///
/// Allocation (paper §3): each eligible head packet computes its candidate
/// set once (cached while it waits), scores every flow-control-feasible
/// (port, VC) with Q + P where
///     qs = output occupancy + consumed credits of the requested queue,
///     Q  = qs + sum of qs' over all queues of the requested port,
/// and makes a single request to the minimum; ties break randomly. Each
/// output port then grants the best request it received this cycle. The
/// per-port sum of qs is maintained incrementally (OutputPort::score_sum,
/// updated at the four mutation sites: grant commit, tail departure,
/// credit return, dead-link drop), so scoring one VC is O(1) instead of
/// O(num_vcs) — it is the innermost arithmetic of the engine, evaluated
/// per (port, VC) per scanned head.
///
/// Candidates arrive port-grouped (routing/mechanism.hpp): one entry per
/// (port, penalty, escape kind) with a VC mask, e.g. one entry for all
/// three CRout VCs of an OmniSP port. The scan intersects the mask with
/// the port's feasibility mask and tests the port's crossbar once per
/// entry, then scores the surviving VCs in ascending order. By the
/// Candidate order invariant that is the per-VC sequence exactly, so the
/// tie-breaking reservoir draws the same RNG values and the grouping
/// changes no grant.
///
/// Head parking: a head whose scan posts no request sleeps until one of
/// its candidates could be granted. An entry with a feasible VC whose
/// output crossbar is busy bounds the sleep by its known release cycle;
/// each infeasible VC of an entry (credits or output space missing)
/// registers the head in that output VC's waiter set, and update_feasible
/// — the one funnel of every credit/space mutation — wakes the set when
/// the VC turns feasible.
/// Parked heads are exactly heads that could not post a request, and a
/// fruitless scan draws no RNG, so parking changes no simulated outcome.
///
/// All packet queues are bounded by flow control, so they live in
/// fixed-capacity ring buffers (util/ringbuf.hpp) instead of deques; see
/// that header for the capacity argument.

#include <cstdint>
#include <limits>
#include <vector>

#include "routing/mechanism.hpp"
#include "sim/config.hpp"
#include "sim/packet.hpp"
#include "util/ringbuf.hpp"
#include "util/types.hpp"

namespace hxsp {

class Network;

/// Per-(input port, VC) buffer state.
struct InputVc {
  RingBuf<PacketPtr> q;          ///< waiting packets; front = head
  int occupancy = 0;             ///< phits of reserved space
  bool draining = false;         ///< head transfer in progress
  Cycle drain_until = 0;         ///< when the in-progress drain completes
                                 ///< (valid whenever draining; kept for
                                 ///< exact gate reconstruction)
  bool cand_valid = false;       ///< cached candidates valid for current head
  int num_cand_vcs = 0;          ///< (port, VC) pairs across `cand` (fills
                                 ///< cand_valid's padding: one InputVc per
                                 ///< (port, VC) adds up at million scale)
  std::vector<Candidate> cand;   ///< cached candidate set of the head
  int num_routing_cands = 0;     ///< non-escape entries in `cand`
  int active_pos = -1;           ///< index in Router::active_, -1 = not listed
};

/// Per-(output port, VC) buffer state plus the credit counter for the
/// downstream input buffer this queue feeds. Stored flattened
/// ([port][vc], like InputVc) so the allocator's per-candidate probe is
/// one computed address instead of a pointer chase through a per-port
/// vector.
struct OutputVc {
  RingBuf<PacketPtr> q;     ///< packets heading for the link; front = next
  int occupancy = 0;        ///< phits reserved (grant) until tail departs
  int credits = 0;          ///< free phits in the downstream input buffer
  int base_credits = 0;     ///< downstream capacity (for consumed-credit Q)
  std::int32_t waiter_slot = -1; ///< this VC's waiter set in
                                 ///< Router::waiter_bits_, -1 = no waiters
                                 ///< (held only while infeasible)
};

/// Per-output-port state shared by its VCs (kept small: the link phase
/// scans these sequentially every active cycle, and the allocator's
/// request loop probes one per candidate).
struct OutputPort {
  Cycle link_free_at = 0;   ///< next cycle the outgoing link can start
  Cycle xbar_free_at = 0;   ///< next cycle the crossbar may grant to it
  int rr_next = 0;          ///< round-robin pointer for link scheduling
  int waiting = 0;          ///< packets queued across this port's VCs
  int score_sum = 0;        ///< running sum of (occupancy + consumed
                            ///< credits) over this port's VCs — the paper's
                            ///< per-port Q term, maintained incrementally
  std::uint32_t feasible_mask = 0; ///< bit v: VC v has the credits and the
                                   ///< buffer space for one whole packet
                                   ///< (virtual cut-through feasibility),
                                   ///< updated wherever either input moves
};

/// Deterministic allocator activity counts of one router (summed by
/// Network::alloc_counters). Always on: plain increments on paths that
/// already touch the same lines, and functions of the simulation alone —
/// identical at any step-thread count and with the auditor on or off.
struct AllocCounters {
  std::int64_t scans = 0;      ///< gate-open head scans
  std::int64_t fruitless = 0;  ///< scans that posted no request (parks)
  std::int64_t requests = 0;   ///< requests posted
  std::int64_t grants = 0;     ///< grants committed
  std::int64_t cand_evals = 0; ///< candidates examined by scans
  std::int64_t wakes = 0;      ///< parked heads woken by a feasibility rise

  AllocCounters& operator+=(const AllocCounters& o) {
    scans += o.scans;
    fruitless += o.fruitless;
    requests += o.requests;
    grants += o.grants;
    cand_evals += o.cand_evals;
    wakes += o.wakes;
    return *this;
  }
  AllocCounters operator-(const AllocCounters& o) const {
    AllocCounters d = *this;
    d.scans -= o.scans;
    d.fruitless -= o.fruitless;
    d.requests -= o.requests;
    d.grants -= o.grants;
    d.cand_evals -= o.cand_evals;
    d.wakes -= o.wakes;
    return d;
  }
  bool operator==(const AllocCounters& o) const {
    return scans == o.scans && fruitless == o.fruitless &&
           requests == o.requests && grants == o.grants &&
           cand_evals == o.cand_evals && wakes == o.wakes;
  }
};

/// One transmission popped by the link phase, awaiting its commit (wheel
/// events, link stats, delivery/consumption). The packet is owned by the
/// stage between collect and commit.
struct StagedTx {
  PacketPtr pkt;
  SwitchId src = kInvalid;
  Port port = 0;
  Vc vc = 0;
};

/// Per-chunk staging buffer of the link phase. Each chunk owns a
/// contiguous ascending range of the link-active snapshot and appends in
/// iteration order, so concatenating the stages in chunk order yields
/// (source router id, ordinal) order exactly — no sort, no timestamps.
/// `deactivated` defers the link-active-set erasures (the one
/// non-router-local mutation of the link phase) to the commit.
struct LinkStage {
  std::vector<StagedTx> txs;
  std::vector<SwitchId> deactivated;

  bool empty() const { return txs.empty() && deactivated.empty(); }
  void clear() {
    txs.clear();
    deactivated.clear();
  }
};

/// One switch of the network.
class Router {
 public:
  /// \p num_switch_ports = topology degree (dead ports included);
  /// \p num_server_ports = servers attached to this switch.
  Router(SwitchId id, int num_switch_ports, int num_server_ports,
         const SimConfig& cfg);

  /// Total ports (switch + server).
  int num_ports() const { return static_cast<int>(outputs_.size()); }

  /// First server (ejection) port.
  Port first_server_port() const { return num_switch_ports_; }

  /// This switch's id.
  SwitchId id() const { return id_; }

  /// Enqueues a packet into input (port, vc); \p head/\p tail are the
  /// arrival cycles of its first and last phit.
  void push_input(Network& net, PacketPtr pkt, Port port, Vc vc, Cycle head,
                  Cycle tail);

  /// Computes (and caches) the candidate set of every eligible head that
  /// does not have one, without posting requests or drawing RNG — the
  /// parallelizable prefix of alloc_phase. Safe to run concurrently for
  /// different routers: it reads only shared-immutable state (topology,
  /// distances, escape tables) and writes only this router's own buffers.
  /// alloc_phase finds the work already done and computes nothing; running
  /// this for any subset of routers therefore cannot change behaviour.
  void precompute_candidates(const Network& net, Cycle now);

  /// Allocation phase: requests + grants for this cycle.
  void alloc_phase(Network& net, Cycle now);

  /// Link phase: starts output-port transmissions. Performs the
  /// router-local mutations (pop the head of each ready port, refresh
  /// out-head caches and waiting counts, stamp link_free_at, advance
  /// round-robin) and stages each popped packet into \p out instead of
  /// delivering it, recording this router in out.deactivated instead of
  /// touching the network's link active set. RNG-free and confined to
  /// this router, so it is safe to run concurrently for disjoint routers;
  /// Network::commit_link_stages replays the staged transmissions in
  /// ascending router order.
  void link_phase_collect(const SimConfig& cfg, Cycle now, LinkStage& out);

  // --- event handlers -----------------------------------------------------

  /// The head packet of input (port,vc) finished leaving through the
  /// crossbar: free its space and stop blocking the next packet.
  void input_drain_done(Network& net, Port port, Vc vc);

  /// A packet's tail (\p phits long) left output (port,vc) over the link.
  /// Inline: fires once per transmitted packet via the event wheel.
  void output_tail_gone(Port port, Vc vc, int phits) {
    OutputVc& ov = output_vc_mut(port, vc);
    ov.occupancy -= phits;
    outputs_[static_cast<std::size_t>(port)].score_sum -= phits;
    out_qs_[vc_index(port, vc)] -= phits;
    update_feasible(port, vc);
    HXSP_DCHECK(ov.occupancy >= 0);
  }

  /// Credit arrived from the downstream buffer of output (port,vc).
  /// Inline: fires once per forwarded packet via the event wheel.
  void credit_return(Port port, Vc vc, int phits) {
    output_vc_mut(port, vc).credits += phits;
    outputs_[static_cast<std::size_t>(port)].score_sum -= phits; // consumed shrank
    out_qs_[vc_index(port, vc)] -= phits;
    update_feasible(port, vc);
  }

  /// True while this router has any buffered input packet (mirrors
  /// membership in the network's alloc active set).
  bool has_input_work() const { return !active_.empty(); }

  /// True while any output VC holds a packet awaiting its link (mirrors
  /// membership in the network's link active set).
  bool has_link_work() const { return waiting_total_ > 0; }

  // --- dynamic fault support ----------------------------------------------

  /// Invalidates every cached candidate set and resets the strict-phase
  /// escape bit of every buffered packet. Called by the network when the
  /// topology (and therefore the routing tables) changed at runtime.
  void on_tables_rebuilt();

  /// Drops every packet still queued in the output buffers of \p port
  /// (they were heading over a link that just died and can no longer be
  /// transmitted). Frees their buffer reservation and returns their
  /// credits. Returns the number of packets lost.
  int drop_output_queue(Network& net, Port port);

  // --- accessors for tests / diagnostics ----------------------------------

  const InputVc& input(Port p, Vc v) const {
    return inputs_[static_cast<std::size_t>(vc_index(p, v))];
  }
  const OutputPort& output(Port p) const {
    return outputs_[static_cast<std::size_t>(p)];
  }
  const OutputVc& output_vc(Port p, Vc v) const {
    return out_vcs_[static_cast<std::size_t>(vc_index(p, v))];
  }

  /// Total packets buffered in this router (inputs + outputs).
  int buffered_packets() const;

  /// Allocator activity counts since construction.
  const AllocCounters& alloc_counters() const { return counters_; }

  /// Debug invariant sweep: occupancies within bounds, credits sane.
  void check_invariants(const SimConfig& cfg) const;

  /// Auditor (sim/audit.cpp): recomputes every incrementally maintained
  /// router structure from first principles — per-VC qs and per-port score
  /// sums, feasibility masks, out-head caches, waiting counts, the active
  /// input list and its back-pointers, head gates, waiter sets — and
  /// aborts on drift. Strictly stronger than check_invariants (exact
  /// equalities, not bounds). Parking exactness: every head parked past
  /// \p now and its input-side bound has, for each (port, VC) of its
  /// candidate entries, either a feasible VC whose crossbar is busy until
  /// at least the gate or a waiter-set registration on the infeasible VC
  /// — so no wake can be missed. Wheel-dependent ledgers (in-flight
  /// credits, pending tail departures) are cross-checked by
  /// Network::run_audit.
  void audit_local(const SimConfig& cfg, Cycle now) const;

  /// Test-only mutable state access, for injecting incremental-state
  /// corruption that the auditor must catch. Never used by the engine.
  OutputPort& corrupt_output_for_test(Port p) {
    return outputs_[static_cast<std::size_t>(p)];
  }
  int& corrupt_out_qs_for_test(Port p, Vc v) { return out_qs_[vc_index(p, v)]; }
  Cycle& corrupt_out_head_for_test(Port p, Vc v) {
    return out_head_[vc_index(p, v)];
  }
  /// Clears one waiter-set bit of a head parked past \p now and its
  /// input-side bound — a missed registration. Returns false when no such
  /// head is registered anywhere.
  bool corrupt_waiters_for_test(Cycle now);

 private:
  friend class Network;

  std::size_t vc_index(Port p, Vc v) const {
    return static_cast<std::size_t>(p) * static_cast<std::size_t>(num_vcs_) +
           static_cast<std::size_t>(v);
  }

  InputVc& input_mut(Port p, Vc v) { return inputs_[vc_index(p, v)]; }
  OutputVc& output_vc_mut(Port p, Vc v) { return out_vcs_[vc_index(p, v)]; }

  /// Recomputes output (p,v)'s bit of OutputPort::feasible_mask from its
  /// credit and occupancy state. Called at every mutation site (credit
  /// return, tail departure, grant, dead-link drop), so it is also where
  /// parked heads wake: a VC holds waiters only while infeasible, so a
  /// feasible VC with a waiter set has just made its 0→1 transition.
  void update_feasible(Port p, Vc v) {
    OutputVc& ov = out_vcs_[vc_index(p, v)];
    const std::uint32_t bit = 1u << static_cast<unsigned>(v);
    OutputPort& op = outputs_[static_cast<std::size_t>(p)];
    if (ov.credits >= len_ && ov.occupancy + len_ <= outbuf_cap_) {
      op.feasible_mask |= bit;
      if (ov.waiter_slot >= 0) wake_waiters(op, ov);
    } else {
      op.feasible_mask &= ~bit;
    }
  }

  /// Earliest cycle the head of input \p enc could request judging by the
  /// input side alone: its head phit's arrival, the VC's previous drain
  /// and the input port's crossbar release. The queue must be non-empty.
  Cycle input_bound(std::size_t enc) const {
    Cycle bound = inputs_[enc].q.front()->buf_head;
    if (inputs_[enc].drain_until > bound) bound = inputs_[enc].drain_until;
    const Cycle xbar = in_xbar_free_[enc / static_cast<std::size_t>(num_vcs_)];
    return xbar > bound ? xbar : bound;
  }

  /// Registers input \p enc in the waiter set of output (p,v), taking a
  /// slot for the set if it has none.
  void add_waiter(Port p, Vc v, std::int32_t enc);

  /// Drains \p ov's waiter set (its VC on \p op just turned feasible):
  /// each waiting head's gate drops to at most the earliest cycle that VC
  /// could grant it, and the slot returns to the free list.
  void wake_waiters(const OutputPort& op, OutputVc& ov);

  /// Words of the waiter bitset at \p slot.
  std::uint64_t* waiter_words(std::int32_t slot) {
    return waiter_bits_.data() + static_cast<std::size_t>(slot) *
                                     static_cast<std::size_t>(waiter_words_);
  }
  const std::uint64_t* waiter_words(std::int32_t slot) const {
    return waiter_bits_.data() + static_cast<std::size_t>(slot) *
                                     static_cast<std::size_t>(waiter_words_);
  }

  /// Adds (port,vc) to the active list if absent (notifying the network
  /// when the router as a whole gains its first buffered packet).
  void mark_active(Network& net, Port p, Vc v);

  /// Removes (port,vc) from the active list (notifying the network when
  /// the router runs out of buffered packets).
  void unmark_active(Network& net, Port p, Vc v);

  /// Fills \p iv's candidate cache for its current head packet (the shared
  /// body of alloc_phase and precompute_candidates).
  void compute_candidates(const Network& net, InputVc& iv);

  SwitchId id_;
  int num_switch_ports_;
  int num_vcs_;
  int len_ = 0;                     ///< SimConfig::packet_length
  int outbuf_cap_ = 0;              ///< SimConfig::output_buffer_phits()
  int waiting_total_ = 0;           ///< sum of OutputPort::waiting
  std::vector<InputVc> inputs_;     ///< [port][vc] flattened
  std::vector<OutputVc> out_vcs_;   ///< [port][vc] flattened
  std::vector<OutputPort> outputs_; ///< [port]
  /// Incrementally maintained qs = occupancy + consumed credits per
  /// output (port,vc), flattened like out_vcs_. The request loop reads
  /// only this and OutputPort, never the (colder) OutputVc structs.
  std::vector<int> out_qs_;
  /// buf_head of each output queue's front packet, or kNeverReady when
  /// the queue is empty — flattened like out_vcs_, so the link phase's
  /// round-robin scan reads one compact line per port and never touches
  /// packets or ring buffers until it actually transmits.
  std::vector<Cycle> out_head_;
  static constexpr Cycle kNeverReady = std::numeric_limits<Cycle>::max();
  std::vector<Cycle> in_xbar_free_; ///< per input port
  std::vector<std::int32_t> active_; ///< encoded (port*V+vc) of non-empty inputs
  /// Head gate per input (port,vc): a lower bound on the cycle the current
  /// head could next post a request. Open heads sit at their input-side
  /// bound (input_bound). A fruitless scan parks the head: the gate rises
  /// to the earliest crossbar release among its feasible candidates (+inf
  /// if none is feasible), and the head joins the waiter set of every
  /// infeasible candidate, whose 0→1 feasibility edge lowers the gate
  /// again (wake_waiters). Every bound either has an exactly-known expiry
  /// or is refreshed at its mutation site, so the request loop's whole
  /// eligibility chain is one compare against a compact array — and
  /// skipped heads are exactly the heads that could not have posted a
  /// request (they draw no RNG, so skipping preserves bit-identical
  /// behaviour). A stale or early wake costs one fruitless scan; a missed
  /// one would be a bug, which the auditor's parking check rules out.
  std::vector<Cycle> in_gate_;

  /// Waiter sets of the output VCs, one bitset over encoded input VCs
  /// (waiter_words_ words) per slot. Slots are taken on demand by
  /// add_waiter, named by OutputVc::waiter_slot and recycled through
  /// waiter_free_, so memory follows the output VCs that have waiters,
  /// not all output VCs.
  std::vector<std::uint64_t> waiter_bits_;
  std::vector<std::int32_t> waiter_free_;
  int waiter_words_ = 0;

  AllocCounters counters_;

  /// Sorted ports with waiting > 0 (so the link phase visits only ports
  /// that can possibly transmit, in the same ascending order as a full
  /// scan), plus the snapshot iterated while transmissions mutate it.
  std::vector<Port> link_ports_;
  std::vector<Port> link_scratch_;

  /// A request posted to an output port during the current cycle.
  struct Request {
    std::int32_t in_enc = -1; ///< encoded input (port*V+vc)
    Vc out_vc = -1;           ///< the VC the scan chose within its entry
    int score = 0;            ///< Q + P
    bool escape = false;
    bool forced = false;
    bool escape_down = false; ///< strict-phase escape Down step
  };
  std::vector<std::vector<Request>> pending_; ///< per output port
  std::vector<Port> dirty_outputs_;           ///< outputs with requests
  RouteScratch scratch_; ///< per-router routing scratch (thread safety of
                         ///< the parallel candidate phase rests on this)
};

} // namespace hxsp
