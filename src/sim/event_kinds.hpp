#pragma once
/// \file event_kinds.hpp
/// The kernel's event vocabulary: every kind of EventDesc record the
/// library schedules, with what each record field means for it.
///
/// A pending event is its record (see simulator.hpp): the kind selects the
/// handler its owner registered, and the b/i/u/f fields carry everything
/// the handler needs. Fields a kind does not list are zero. Values are part
/// of the GLRK checkpoint format (pending events are saved as records):
/// append only, never renumber.

#include <cstdint>

namespace glr::sim {

enum EventKind : std::uint16_t {
  kNone = 0,  // never registered, so a zeroed record cannot be scheduled

  // mac/channel.cpp. u0: transmission id.
  kChannelTxEnd = 1,

  // mac/mac.cpp, routed by net::World. i0: the node.
  kMacAttempt = 2,        // queued attempt (immediate or deferred)
  kMacBackoffExpire = 3,  // backoff slot countdown finished
  kMacTxEnd = 4,          // b0: expect an ACK; u0: radio epoch at start
  kMacAckTimeout = 5,     // ACK wait expired
  kMacAckReply = 6,       // i1: ACK destination; u0: DATA seq;
                          // u1: radio epoch; f0: ACK airtime

  // net/neighbor.cpp, routed to the node's agent. i0: the node.
  kHello = 7,

  // net/world.cpp. i0: the node whose agent starts (t = 0 fan-out).
  kAgentStart = 8,

  // net/churn.cpp. u0: churning-node index (not the node id).
  kChurnToggle = 9,

  // net/faults.cpp.
  kFaultBurstNext = 10,   // burst arrival chain (draws at fire time)
  kFaultBurstEnd = 11,    // one open burst closes
  kFaultStallNext = 12,   // stall arrival chain (draws at fire time)
  kFaultStallEnd = 13,    // i0: the stalled node
  kFaultFlap = 14,        // i0: the flapping node; b0: currently up

  // core/glr_agent.cpp, routed to the node's agent. i0: the node.
  kGlrPeriodicCheck = 15,
  kGlrQueuedCheck = 16,   // contact/originate-triggered deferred check
  kGlrAckRetry = 17,      // i1: ack destination; u0: (src << 32) | seq;
                          // b0: tree flag; b1: accepted; u1: attempt
  kGlrCustodyTimer = 18,  // i1: copy src; u0: copy seq; b0: tree flag;
                          // f0: when the copy was sent

  // routing/*.cpp, routed to the node's agent. i0: the node.
  kEpidemicExchange = 19,
  kSprayExpiry = 20,
  kDirectCheck = 21,

  // experiment/traffic.cpp.
  kTrafficPaperArrival = 22,   // i0: source node; i1: destination node
  kTrafficArrival = 23,        // single-chain stochastic models
  kTrafficSourceToggle = 24,   // u0: source index (ON/OFF phase flip)
  kTrafficSourceArrival = 25,  // u0: source index; u1: phase epoch

  // experiment/scenario.cpp: the periodic checkpoint writer itself.
  kCheckpointTimer = 26,

  /// One past the last library kind. Kinds from here up to the kernel's
  /// table size are free for code outside the library (test adapters,
  /// benches); a scenario never registers them.
  kLibraryKindEnd = 27,
};

}  // namespace glr::sim
