#ifndef CCUBE_CCL_PROTOCOL_H_
#define CCUBE_CCL_PROTOCOL_H_

/**
 * @file
 * Wire protocols for the mailbox fast path, mirroring NCCL's
 * LL / Simple split ("Demystifying NCCL"):
 *
 *  - kSimple: the fenced bulk path. Chunks move through the
 *    preallocated ring guarded by counting semaphores; every post and
 *    every wait pays the semaphore lock/post/fence round-trip (the
 *    per-chunk sync alpha), but payload bytes travel 1:1.
 *  - kLL: the low-latency flag-based path. Every 32-bit payload word
 *    is paired with an inline 32-bit flag word carrying the message
 *    sequence number, so the receiver spins on data arrival directly
 *    and no semaphore is touched on the data path. Latency drops to a
 *    couple of cache-line round-trips; effective bandwidth halves
 *    (half of every line is flags).
 *
 * Communicator::runAuto takes the protocol, with the algorithm and the
 * chunking, from the tuner's per-size selection table (ccl/tuner.h).
 *
 * The analytic-model / DES view of the same tradeoff lives in
 * ProtocolCosts: Simple is the identity (existing baselines are
 * calibrated against it), LL inflates serialized bytes by 2x and cuts
 * the per-message latency term to a quarter.
 */

namespace ccube {
namespace ccl {

/** Which wire protocol a collective (or a single mailbox op) uses. */
enum class Protocol {
    kSimple, ///< fenced bulk transfers through the semaphore ring
    kLL,     ///< inline flag-per-word spinning, no semaphores
};

inline const char*
protocolName(Protocol proto)
{
    switch (proto) {
    case Protocol::kSimple:
        return "simple";
    case Protocol::kLL:
        return "ll";
    }
    return "?";
}

/**
 * Model-side cost shape of a protocol, applied on top of a link's
 * AlphaBeta (model::) or a channel's latency/bandwidth (simnet::).
 * Simple is exactly {1, 1} so pre-protocol schedules, baselines and
 * tests are bit-for-bit unchanged.
 */
struct ProtocolCosts {
    /** Serialized bytes per payload byte (LL: flag word per word). */
    double payload_factor = 1.0;
    /** Scale on the per-message latency term alpha. */
    double alpha_factor = 1.0;
};

inline ProtocolCosts
protocolCosts(Protocol proto)
{
    switch (proto) {
    case Protocol::kLL:
        // Half of every line is flags => 2x serialized bytes. The
        // flag spin replaces the semaphore lock/post/fence round
        // trip, modelled as a 4x cut in the alpha term.
        return ProtocolCosts{2.0, 0.25};
    case Protocol::kSimple:
        break;
    }
    return ProtocolCosts{1.0, 1.0};
}

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_PROTOCOL_H_
