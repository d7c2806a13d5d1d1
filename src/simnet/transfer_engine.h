#ifndef CCUBE_SIMNET_TRANSFER_ENGINE_H_
#define CCUBE_SIMNET_TRANSFER_ENGINE_H_

/**
 * @file
 * Multi-hop transfers: store-and-forward along a route.
 *
 * Detour routes (§IV-A) and switch-fabric paths move a chunk through
 * intermediate nodes; each segment is a full channel occupancy, which
 * is exactly how the paper's forwarding kernels behave (the chunk is
 * received into the transit GPU's memory, then re-sent).
 */

#include "ccl/protocol.h"
#include "simnet/channel.h"
#include "topo/tree_embedding.h"

namespace ccube {
namespace simnet {

/**
 * Issues chunk transfers along physical routes.
 */
class TransferEngine
{
  public:
    explicit TransferEngine(Network& network) : net_(network) {}

    /**
     * Selects the wire protocol every subsequent send models
     * (ccl::protocolCosts): LL inflates the payload by its
     * payload_factor once per send — one inline flag word per data
     * word — and scales every fixed latency term (channel α, switch
     * transit latency) by its alpha_factor, because the receiver spins
     * on the flags directly instead of taking the fenced semaphore
     * round-trip. Simple is the identity; the default.
     */
    void setProtocol(ccl::Protocol proto)
    {
        proto_ = proto;
        costs_ = ccl::protocolCosts(proto);
    }

    /** Protocol currently modeled. */
    ccl::Protocol protocol() const { return proto_; }

    /**
     * Sends @p bytes along @p route (node sequence) hop by hop;
     * @p done fires when the final hop completes. @p lane selects
     * among parallel channels on every segment. With tracing enabled
     * each send also emits one end-to-end flow span (src pid, flow
     * track) covering queueing and every hop.
     */
    void sendAlongRoute(const topo::Route& route, double bytes,
                        DoneFn done, int lane = 0);

    /** Multi-hop sends issued (store-and-forward or cut-through). */
    std::uint64_t sendsIssued() const { return sends_issued_; }

  private:
    /**
     * Runs the stage starting at hop @p index. A stage spans
     * consecutive switch hops (cut-through: only the entry and exit
     * channels are occupied; intermediate switch channels contribute
     * latency only). A non-switch transit (a GPU detour) ends a stage
     * — it stores and forwards.
     */
    void runStage(const topo::Route& route, std::size_t index,
                  double bytes, DoneFn done, int lane);

    Network& net_;
    ccl::Protocol proto_ = ccl::Protocol::kSimple;
    ccl::ProtocolCosts costs_;
    std::uint64_t sends_issued_ = 0;
};

} // namespace simnet
} // namespace ccube

#endif // CCUBE_SIMNET_TRANSFER_ENGINE_H_
