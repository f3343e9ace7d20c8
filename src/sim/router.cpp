#include "sim/router.hpp"

#include <algorithm>
#include <limits>

#include "sim/network.hpp"

namespace hxsp {

Router::Router(SwitchId id, int num_switch_ports, int num_server_ports,
               const SimConfig& cfg)
    : id_(id), num_switch_ports_(num_switch_ports), num_vcs_(cfg.num_vcs),
      len_(cfg.packet_length), outbuf_cap_(cfg.output_buffer_phits()) {
  HXSP_CHECK_MSG(num_vcs_ <= 32, "feasible_mask holds at most 32 VCs");
  const int total_ports = num_switch_ports + num_server_ports;
  const std::size_t total_vcs = static_cast<std::size_t>(total_ports) *
                                static_cast<std::size_t>(num_vcs_);
  // Direct construction (not resize): these structs hold move-only buffers.
  inputs_ = std::vector<InputVc>(total_vcs);
  for (auto& iv : inputs_) iv.q.reset_capacity(cfg.input_buffer_packets);
  out_vcs_ = std::vector<OutputVc>(total_vcs);
  for (auto& ov : out_vcs_) {
    ov.q.reset_capacity(cfg.output_buffer_packets);
    ov.credits = cfg.input_buffer_phits();
    ov.base_credits = cfg.input_buffer_phits();
  }
  out_qs_.assign(total_vcs, 0);
  out_head_.assign(total_vcs, kNeverReady);
  in_gate_.assign(total_vcs, 0);
  waiter_words_ = static_cast<int>((total_vcs + 63) / 64);
  outputs_ = std::vector<OutputPort>(static_cast<std::size_t>(total_ports));
  for (Port p = 0; p < static_cast<Port>(total_ports); ++p)
    for (Vc v = 0; v < num_vcs_; ++v) update_feasible(p, v);
  in_xbar_free_.assign(static_cast<std::size_t>(total_ports), 0);
  pending_.resize(static_cast<std::size_t>(total_ports));
}

void Router::mark_active(Network& net, Port p, Vc v) {
  InputVc& iv = input_mut(p, v);
  if (iv.active_pos >= 0) return;
  if (active_.empty()) net.router_alloc_activated(id_);
  iv.active_pos = static_cast<int>(active_.size());
  active_.push_back(static_cast<std::int32_t>(vc_index(p, v)));
}

void Router::unmark_active(Network& net, Port p, Vc v) {
  InputVc& iv = input_mut(p, v);
  if (iv.active_pos < 0) return;
  const int pos = iv.active_pos;
  const std::int32_t last = active_.back();
  active_[static_cast<std::size_t>(pos)] = last;
  inputs_[static_cast<std::size_t>(last)].active_pos = pos;
  active_.pop_back();
  iv.active_pos = -1;
  if (active_.empty()) net.router_alloc_deactivated(id_);
}

void Router::push_input(Network& net, PacketPtr pkt, Port port, Vc vc,
                        Cycle head, Cycle tail) {
  InputVc& iv = input_mut(port, vc);
  pkt->buf_head = head;
  pkt->buf_tail = tail;
  iv.occupancy += pkt->length;
  HXSP_DCHECK(iv.occupancy <= net.cfg().input_buffer_phits());
  const bool fresh_head = iv.q.empty();
  iv.q.push_back(std::move(pkt));
  if (fresh_head) {
    iv.cand_valid = false;
    // Fresh head: it can first request once its head phit is here, any
    // in-progress drain of this VC finished, and the input port's
    // crossbar is free again.
    in_gate_[vc_index(port, vc)] = input_bound(vc_index(port, vc));
  }
  mark_active(net, port, vc);
}

void Router::compute_candidates(const Network& net, InputVc& iv) {
  const Packet& pkt = *iv.q.front();
  iv.cand.clear();
  if (pkt.dst_switch == id_) {
    // Ejection: the only candidate is this packet's server port, VC 0.
    const Port eject = first_server_port() +
                       static_cast<Port>(pkt.dst_server %
                                         net.servers_per_switch());
    iv.cand.push_back({eject, vc_bit(0), 0, false, false});
    iv.num_routing_cands = 1;
    iv.num_cand_vcs = 1;
  } else {
    net.mechanism().candidates(net.ctx(), pkt, id_, scratch_, iv.cand);
    int routing = 0;
    int vcs = 0;
    for (const Candidate& c : iv.cand) {
      routing += c.escape ? 0 : 1;
      vcs += __builtin_popcount(c.vcs);
    }
    iv.num_routing_cands = routing;
    iv.num_cand_vcs = vcs;
  }
  iv.cand_valid = true;
}

void Router::precompute_candidates(const Network& net, Cycle now) {
  // Exactly the heads alloc_phase would compute candidates for this cycle:
  // gate-open and cache-invalid. Gates and caches of *this* router cannot
  // change between this phase and its alloc_phase (other routers' grants
  // only touch their own state; cross-router effects travel through
  // future-cycle events), so the precomputed set is exactly what serial
  // alloc would have computed — candidate caching is a pure function of
  // the head packet and shared-immutable tables, and draws no RNG.
  for (const std::int32_t enc : active_) {
    if (now < in_gate_[static_cast<std::size_t>(enc)]) continue;
    InputVc& iv = inputs_[static_cast<std::size_t>(enc)];
    if (iv.cand_valid) continue;
    compute_candidates(net, iv);
  }
}

void Router::alloc_phase(Network& net, Cycle now) {
  if (active_.empty()) return;
  const SimConfig& cfg = net.cfg();
  const int len = cfg.packet_length;
  // Counted locally and added once: stores into the Cycle arrays below
  // could alias the int64 members, which would pin every increment to
  // memory.
  AllocCounters count;

  // --- request phase: every eligible head posts one request ---------------
  for (std::size_t ai = 0; ai < active_.size(); ++ai) {
    const std::int32_t enc = active_[ai];
    // The gate is the max of every lower bound on this head's next
    // possible request (arrival, drain, input crossbar, output parking),
    // so one compare replaces the whole eligibility chain.
    if (now < in_gate_[static_cast<std::size_t>(enc)]) { continue; }
    InputVc& iv = inputs_[static_cast<std::size_t>(enc)];
    HXSP_DCHECK(!iv.draining && !iv.q.empty());
    Packet& pkt = *iv.q.front();
    HXSP_DCHECK(pkt.buf_head <= now);
    HXSP_DCHECK(in_xbar_free_[static_cast<std::size_t>(enc / num_vcs_)] <= now);

    if (!iv.cand_valid) compute_candidates(net, iv);
    ++count.scans;
    count.cand_evals += iv.num_cand_vcs;
    if (iv.cand.empty()) {
      // Stuck: no legal move at all (e.g. DOR + fault). Only a table
      // rebuild can change that, and it resets the gate.
      ++count.fruitless;
      in_gate_[static_cast<std::size_t>(enc)] =
          std::numeric_limits<Cycle>::max();
      continue;
    }

    // Single request: the feasible (port, VC) minimising Q + P, where
    // Q = qs(port, vc) + score_sum(port) (paper §3: the requested queue
    // counts twice). Each entry tests its port's feasibility mask and
    // crossbar once, then scores its feasible VCs in ascending order —
    // the per-VC order, so the reservoir tie-break draws exactly as a
    // per-VC scan would. While scanning, accumulate the earliest crossbar
    // release of the feasible entries, so a fruitless scan parks the head
    // until then.
    int best_score = std::numeric_limits<int>::max();
    int best_idx = -1;
    Vc best_vc = 0;
    int ties = 0;
    Cycle wake = std::numeric_limits<Cycle>::max();
    for (std::size_t i = 0; i < iv.cand.size(); ++i) {
      const Candidate& c = iv.cand[i];
      const OutputPort& op = outputs_[static_cast<std::size_t>(c.port)];
      // VCs missing credits or space drop out; a fruitless scan parks the
      // head on their waiter sets, which wake it when one turns feasible.
      std::uint32_t feasible = op.feasible_mask & c.vcs;
      if (feasible == 0) continue;
      if (op.xbar_free_at > now) {
        // Release times only move forward: this entry cannot be granted
        // before op.xbar_free_at, whatever else happens.
        if (op.xbar_free_at < wake) wake = op.xbar_free_at;
        continue;
      }
      const int port_score = op.score_sum + c.penalty;
      const int* const qs = &out_qs_[vc_index(c.port, 0)];
      do {
        const Vc v = lowest_vc(feasible);
        feasible &= feasible - 1;
        const int score = qs[v] + port_score;
        if (score < best_score) {
          best_score = score;
          best_idx = static_cast<int>(i);
          best_vc = v;
          ties = 1;
        } else if (score == best_score) {
          ++ties;
          if (net.rng().next_below(static_cast<std::uint64_t>(ties)) == 0) {
            best_idx = static_cast<int>(i);
            best_vc = v;
          }
        }
      } while (feasible != 0);
    }
    if (best_idx < 0) {
      // No request this cycle (a state the full rescan would also reach
      // with zero side effects until `wake` or until an infeasible VC
      // turns feasible): park the head. Only fruitless scans register — a
      // head that requested and lost rescans next cycle.
      ++count.fruitless;
      in_gate_[static_cast<std::size_t>(enc)] = wake;
      for (const Candidate& c : iv.cand) {
        std::uint32_t blocked =
            c.vcs & ~outputs_[static_cast<std::size_t>(c.port)].feasible_mask;
        for (; blocked != 0; blocked &= blocked - 1)
          add_waiter(c.port, lowest_vc(blocked), enc);
      }
      continue;
    }
    ++count.requests;
    const Candidate& c = iv.cand[static_cast<std::size_t>(best_idx)];
    auto& reqs = pending_[static_cast<std::size_t>(c.port)];
    if (reqs.empty()) dirty_outputs_.push_back(c.port);
    // A forced hop (paper §3) is a CRout packet pushed into the escape
    // because the base routing offered nothing; hops of packets already
    // living on the escape are ordinary escape hops.
    const bool forced = c.escape && !pkt.in_escape && iv.num_routing_cands == 0;
    reqs.push_back({enc, best_vc, best_score, c.escape, forced, c.escape_down});
  }

  // --- grant phase: each requested output grants its best request ---------
  for (const Port out_port : dirty_outputs_) {
    auto& reqs = pending_[static_cast<std::size_t>(out_port)];
    int best = -1;
    int best_score = std::numeric_limits<int>::max();
    int ties = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Port in_port = static_cast<Port>(reqs[i].in_enc / num_vcs_);
      // The input port may have been claimed by a grant of an earlier
      // output this cycle.
      if (in_xbar_free_[static_cast<std::size_t>(in_port)] > now) continue;
      if (reqs[i].score < best_score) {
        best_score = reqs[i].score;
        best = static_cast<int>(i);
        ties = 1;
      } else if (reqs[i].score == best_score) {
        ++ties;
        if (net.rng().next_below(static_cast<std::uint64_t>(ties)) == 0)
          best = static_cast<int>(i);
      }
    }
    if (best >= 0) {
      ++count.grants;
      const Request req = reqs[static_cast<std::size_t>(best)];
      // ---- commit the grant --------------------------------------------
      InputVc& iv = inputs_[static_cast<std::size_t>(req.in_enc)];
      const Port in_port = static_cast<Port>(req.in_enc / num_vcs_);
      const Vc in_vc = static_cast<Vc>(req.in_enc % num_vcs_);
      PacketPtr pkt = iv.q.pop_front();
      if (iv.q.empty()) unmark_active(net, in_port, in_vc);
      iv.draining = true;
      iv.cand_valid = false;

      // Cut-through: the tail leaves the input when the crossbar is done
      // or when it has fully arrived, whichever is later.
      const Cycle drain_done =
          std::max(now + cfg.xbar_cycles(), pkt->buf_tail);
      iv.drain_until = drain_done;
      net.schedule(drain_done,
                   {Event::Kind::InDrainDone, in_vc, in_port, id_, 0});
      const Cycle xbar_free = now + cfg.xbar_cycles();
      in_xbar_free_[static_cast<std::size_t>(in_port)] = xbar_free;
      // Gate every VC of the claimed input port behind its crossbar; the
      // granted VC additionally waits for its drain to finish and for the
      // next head's phits to arrive.
      for (Vc v = 0; v < num_vcs_; ++v) {
        Cycle& gate = in_gate_[vc_index(in_port, v)];
        if (gate < xbar_free) gate = xbar_free;
      }
      {
        Cycle& gate = in_gate_[static_cast<std::size_t>(req.in_enc)];
        gate = drain_done;
        if (!iv.q.empty() && iv.q.front()->buf_head > gate)
          gate = iv.q.front()->buf_head;
      }

      OutputPort& op = outputs_[static_cast<std::size_t>(out_port)];
      op.xbar_free_at = now + cfg.xbar_cycles();
      OutputVc& ov = output_vc_mut(out_port, req.out_vc);
      ov.credits -= len;
      ov.occupancy += len;
      op.score_sum += 2 * len; // +len occupancy, +len consumed credits
      out_qs_[vc_index(out_port, req.out_vc)] += 2 * len;
      update_feasible(out_port, req.out_vc);
      if (op.waiting++ == 0) sorted_id_insert(link_ports_, out_port);
      if (waiting_total_++ == 0) net.router_link_activated(id_);

      pkt->buf_head = now + cfg.xbar_latency;
      pkt->buf_tail = drain_done + cfg.xbar_latency;
      if (ov.q.empty())
        out_head_[vc_index(out_port, req.out_vc)] = pkt->buf_head;

      if (PacketTracer* const tr = net.tracer())
        tr->record(TraceEvent::kGrant, now, pkt->id, id_, out_port,
                   req.out_vc);

      // Server-port grants carry no hop semantics.
      if (out_port < num_switch_ports_) {
        // Counted before commit_hop mutates pkt->in_escape, so an escape
        // grant of a packet not yet on the escape counts as a SurePath
        // activation.
        net.metrics().on_grant(id_, req.out_vc,
                               req.forced   ? HopKind::Forced
                               : req.escape ? HopKind::Escape
                                            : HopKind::Routing,
                               req.escape && !pkt->in_escape);
        const Candidate cand{out_port, vc_bit(req.out_vc), 0, req.escape,
                             req.escape_down};
        net.mechanism().commit_hop(net.ctx(), *pkt, id_, cand);
      }
      ov.q.push_back(std::move(pkt));
      net.note_progress();
    }
    reqs.clear();
  }
  dirty_outputs_.clear();
  counters_ += count;
}

void Router::link_phase_collect(const SimConfig& cfg, Cycle now,
                                LinkStage& out) {
  const int len = cfg.packet_length;
  // Router-local half of the link phase; the network-visible tail (wheel
  // events, link stats, delivery or consumption, active-set erasure) is
  // staged for Network::commit_link_stages. Snapshot: transmissions may
  // drain a port and shrink link_ports_.
  link_scratch_.assign(link_ports_.begin(), link_ports_.end());
  for (const Port p : link_scratch_) {
    OutputPort& op = outputs_[static_cast<std::size_t>(p)];
    if (op.waiting == 0 || op.link_free_at > now) continue;
    const std::size_t vbase = vc_index(p, 0);
    for (int k = 0; k < num_vcs_; ++k) {
      const int v = (op.rr_next + k) % num_vcs_;
      if (out_head_[vbase + static_cast<std::size_t>(v)] > now) continue;
      OutputVc& ov = out_vcs_[vbase + static_cast<std::size_t>(v)];
      PacketPtr pkt = ov.q.pop_front();
      out_head_[vbase + static_cast<std::size_t>(v)] =
          ov.q.empty() ? kNeverReady : ov.q.front()->buf_head;
      if (--op.waiting == 0) sorted_id_erase(link_ports_, p);
      if (--waiting_total_ == 0) out.deactivated.push_back(id_);
      op.link_free_at = now + len;
      op.rr_next = (v + 1) % num_vcs_;
      out.txs.push_back({std::move(pkt), id_, p, static_cast<Vc>(v)});
      break;
    }
  }
}

void Router::add_waiter(Port p, Vc v, std::int32_t enc) {
  OutputVc& ov = output_vc_mut(p, v);
  if (ov.waiter_slot < 0) {
    if (!waiter_free_.empty()) {
      ov.waiter_slot = waiter_free_.back();
      waiter_free_.pop_back();
    } else {
      ov.waiter_slot = static_cast<std::int32_t>(
          waiter_bits_.size() / static_cast<std::size_t>(waiter_words_));
      waiter_bits_.resize(waiter_bits_.size() +
                          static_cast<std::size_t>(waiter_words_), 0);
    }
  }
  waiter_words(ov.waiter_slot)[enc / 64] |=
      std::uint64_t{1} << static_cast<unsigned>(enc % 64);
}

void Router::wake_waiters(const OutputPort& op, OutputVc& ov) {
  std::uint64_t* const words = waiter_words(ov.waiter_slot);
  std::int64_t woken = 0;
  for (int w = 0; w < waiter_words_; ++w) {
    std::uint64_t bits = words[w];
    words[w] = 0;
    while (bits != 0) {
      const std::size_t enc = static_cast<std::size_t>(w) * 64 +
                              static_cast<std::size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      // A registration goes stale when its head is granted through
      // another candidate. An emptied VC has no head to wake; a new head
      // at worst rescans once.
      if (inputs_[enc].q.empty()) continue;
      // The earliest this VC could grant the head: the input side is
      // ready and the output crossbar released. Later state changes can
      // only push that later, so the min with the parked gate is a bound.
      Cycle t = input_bound(enc);
      if (op.xbar_free_at > t) t = op.xbar_free_at;
      if (t < in_gate_[enc]) in_gate_[enc] = t;
      ++woken;
    }
  }
  counters_.wakes += woken;
  waiter_free_.push_back(ov.waiter_slot);
  ov.waiter_slot = -1;
}

void Router::input_drain_done(Network& net, Port port, Vc vc) {
  InputVc& iv = input_mut(port, vc);
  HXSP_DCHECK(iv.draining);
  iv.draining = false;
  iv.occupancy -= net.cfg().packet_length;
  HXSP_DCHECK(iv.occupancy >= 0);
}

void Router::on_tables_rebuilt() {
  for (Port p = 0; p < static_cast<Port>(outputs_.size()); ++p) {
    for (Vc v = 0; v < num_vcs_; ++v) {
      InputVc& iv = input_mut(p, v);
      iv.cand_valid = false;
      // Drop the (stale-candidate-based) output park bound from the gate
      // but keep the exact input-side bounds, so every head rescans as
      // soon as it legally can on the new tables.
      const std::size_t enc = vc_index(p, v);
      in_gate_[enc] = iv.q.empty() ? 0 : input_bound(enc);
      // Strict-phase escape liveness is proven per table build; restart
      // the phase so every packet re-derives a valid route on the new
      // tables.
      for (int i = 0; i < iv.q.size(); ++i) iv.q[i]->escape_gone_down = false;
    }
  }
  // Every head now rescans at its input-side bound, so no waiter set is
  // needed any more.
  for (auto& ov : out_vcs_) {
    for (int i = 0; i < ov.q.size(); ++i) ov.q[i]->escape_gone_down = false;
    ov.waiter_slot = -1;
  }
  waiter_bits_.clear();
  waiter_free_.clear();
}

int Router::drop_output_queue(Network& net, Port port) {
  const int len = net.cfg().packet_length;
  OutputPort& op = outputs_[static_cast<std::size_t>(port)];
  int dropped = 0;
  for (Vc v = 0; v < num_vcs_; ++v) {
    OutputVc& ov = output_vc_mut(port, v);
    while (!ov.q.empty()) {
      (void)ov.q.pop_front(); // destroys the packet (back to the pool)
      ov.occupancy -= len;    // no OutTailGone will fire
      ov.credits += len;      // reserved downstream space unused
      op.score_sum -= 2 * len;
      out_qs_[vc_index(port, v)] -= 2 * len;
      --op.waiting;
      --waiting_total_;
      ++dropped;
    }
    out_head_[vc_index(port, v)] = kNeverReady;
    update_feasible(port, v);
  }
  if (dropped > 0) {
    if (op.waiting == 0) sorted_id_erase(link_ports_, port);
    if (waiting_total_ == 0) net.router_link_deactivated(id_);
  }
  return dropped;
}

bool Router::corrupt_waiters_for_test(Cycle now) {
  for (const std::int32_t enc : active_) {
    const std::size_t i = static_cast<std::size_t>(enc);
    if (in_gate_[i] <= now || in_gate_[i] <= input_bound(i)) continue;
    for (const Candidate& c : inputs_[i].cand) {
      for (std::uint32_t vcs = c.vcs; vcs != 0; vcs &= vcs - 1) {
        const std::int32_t slot =
            output_vc_mut(c.port, lowest_vc(vcs)).waiter_slot;
        if (slot < 0) continue;
        std::uint64_t& word = waiter_words(slot)[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if ((word & bit) == 0) continue;
        word &= ~bit;
        return true;
      }
    }
  }
  return false;
}

int Router::buffered_packets() const {
  int n = 0;
  for (const auto& iv : inputs_) n += iv.q.size();
  for (const auto& ov : out_vcs_) n += ov.q.size();
  return n;
}

void Router::check_invariants(const SimConfig& cfg) const {
  for (const auto& iv : inputs_) {
    HXSP_CHECK(iv.occupancy >= 0 && iv.occupancy <= cfg.input_buffer_phits());
    HXSP_CHECK(iv.q.size() * cfg.packet_length <=
               iv.occupancy + (iv.draining ? cfg.packet_length : 0));
  }
  int waiting = 0;
  for (Port p = 0; p < static_cast<Port>(outputs_.size()); ++p) {
    const OutputPort& op = outputs_[static_cast<std::size_t>(p)];
    int score_sum = 0;
    for (Vc v = 0; v < num_vcs_; ++v) {
      const OutputVc& ov = output_vc(p, v);
      HXSP_CHECK(ov.occupancy >= 0 && ov.occupancy <= cfg.output_buffer_phits());
      HXSP_CHECK(ov.credits >= 0);
      const int qs = ov.occupancy + (ov.base_credits - ov.credits);
      HXSP_CHECK(out_qs_[vc_index(p, v)] == qs);
      HXSP_CHECK(out_head_[vc_index(p, v)] ==
                 (ov.q.empty() ? kNeverReady : ov.q.front()->buf_head));
      const bool feasible = ov.credits >= len_ &&
                            ov.occupancy + len_ <= outbuf_cap_;
      HXSP_CHECK(((op.feasible_mask >> static_cast<unsigned>(v)) & 1u) ==
                 (feasible ? 1u : 0u));
      score_sum += qs;
    }
    HXSP_CHECK(op.score_sum == score_sum);
    waiting += op.waiting;
    const bool listed = std::binary_search(link_ports_.begin(),
                                           link_ports_.end(), p);
    HXSP_CHECK(listed == (op.waiting > 0));
  }
  HXSP_CHECK(waiting_total_ == waiting);
}

} // namespace hxsp
