#pragma once
/// \file config.hpp
/// Simulation parameters (paper Table 2) plus engine knobs.

#include "util/types.hpp"

namespace hxsp {

/// Microarchitectural and engine configuration of a simulation.
/// Defaults reproduce the paper's Table 2 exactly.
struct SimConfig {
  int packet_length = 16;       ///< phits per packet ("Packet length 16 phits")
  int input_buffer_packets = 8; ///< per (port,VC) input FIFO ("8 packets")
  int output_buffer_packets = 4;///< per (port,VC) output FIFO ("4 packets")
  int link_latency = 1;         ///< cycles ("Link latency 1 cycle")
  int xbar_latency = 1;         ///< cycles ("Crossbar latency 1 cycle (link)")
  int xbar_speedup = 2;         ///< phits/cycle through the crossbar per port
  int num_vcs = 4;              ///< virtual channels per port
  int server_queue_packets = 8; ///< injection queue depth per server

  /// Abort if no packet movement happens for this many cycles while
  /// packets are in flight (deadlock/livelock tripwire). 0 disables.
  Cycle watchdog_cycles = 50000;

  /// Every this many cycles the engine invariant auditor recomputes the
  /// incrementally maintained hot-path structures (allocator score sums,
  /// feasibility masks, active sets, ring-buffer occupancies, pool live
  /// counts, per-link credit/packet conservation) from scratch and aborts
  /// on any drift (see sim/audit.cpp). 0 disables (the default unless the
  /// build sets -DHXSP_AUDIT=ON). The audit mutates nothing: enabling it
  /// can only turn a silent byte-diff into a loud failure, never change
  /// simulation output.
#ifdef HXSP_AUDIT_BUILD
  Cycle audit_interval = 1024;
#else
  Cycle audit_interval = 0;
#endif

  /// Close a telemetry window every this many cycles: per-window
  /// throughput, latency percentiles, hop-kind counts and per-link
  /// utilization, each the difference of the always-on SimMetrics
  /// counters between two window boundaries, plus the input-VC occupancy
  /// high-water mark (see telemetry/telemetry.hpp). 0 disables — no
  /// registry is allocated and the step pays one compare for the roll
  /// and one null-pointer compare at the occupancy hook. Like the
  /// auditor, telemetry observes and never mutates: enabling it cannot
  /// change any simulation result.
  Cycle telemetry_window = 0;

  /// Sample packets whose id is a multiple of this modulus for per-hop
  /// path tracing (telemetry/trace.hpp): (cycle, router, port, VC,
  /// event) records exportable as Chrome-trace JSON / JSONL. Keyed on
  /// packet ids — never an RNG, never a clock — so traces are part of
  /// the bit-identity contract. 0 disables; 1 traces every packet.
  int trace_sample = 0;

  /// Keep a ring of the most recent engine events this deep, dumped to
  /// stderr when an HXSP_CHECK / auditor / watchdog failure aborts the
  /// run (telemetry/flight_recorder.hpp). 0 disables.
  int flight_recorder = 0;

  /// Derived: input buffer capacity in phits.
  int input_buffer_phits() const { return input_buffer_packets * packet_length; }

  /// Derived: output buffer capacity in phits.
  int output_buffer_phits() const { return output_buffer_packets * packet_length; }

  /// Derived: cycles a packet occupies the crossbar (ceil(len/speedup)).
  int xbar_cycles() const {
    return (packet_length + xbar_speedup - 1) / xbar_speedup;
  }
};

/// Field-wise equality (spec serialization round-trip checks).
inline bool operator==(const SimConfig& a, const SimConfig& b) {
  return a.packet_length == b.packet_length &&
         a.input_buffer_packets == b.input_buffer_packets &&
         a.output_buffer_packets == b.output_buffer_packets &&
         a.link_latency == b.link_latency && a.xbar_latency == b.xbar_latency &&
         a.xbar_speedup == b.xbar_speedup && a.num_vcs == b.num_vcs &&
         a.server_queue_packets == b.server_queue_packets &&
         a.watchdog_cycles == b.watchdog_cycles &&
         a.audit_interval == b.audit_interval &&
         a.telemetry_window == b.telemetry_window &&
         a.trace_sample == b.trace_sample &&
         a.flight_recorder == b.flight_recorder;
}
inline bool operator!=(const SimConfig& a, const SimConfig& b) {
  return !(a == b);
}

} // namespace hxsp
