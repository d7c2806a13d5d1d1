#include "ccl/primitives.h"

#include <utility>

#include "ccl/double_tree_allreduce.h"
#include "ccl/program_task.h"
#include "ccl/ring_allreduce.h"
#include "ccl/tree_allreduce.h"
#include "ccl/tuner.h"
#include "topo/embedding_search.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

namespace {

// sched::ringProgram and sched::doubleTreeProgram hard-code the ccl
// flow-id convention.
static_assert(kFlowRing == 0);
static_assert(kFlowTree0Reduce == 1 && kFlowTree0Broadcast == 2 &&
              kFlowTree1Reduce == 3 && kFlowTree1Broadcast == 4);

/** Runs an AllReduce program, recording its final markers. */
AllReduceTrace
runAllReduce(Communicator& comm, RankBuffers& buffers,
             sched::Program program, AllReduceTrace::Observer observer,
             Protocol proto, const char* op)
{
    AllReduceTrace trace(comm.numRanks());
    trace.setObserver(std::move(observer));
    runProgram(comm, buffers, std::move(program), &trace, proto, op);
    return trace;
}

} // namespace

AllReduceTrace
ringAllReduce(Communicator& comm, RankBuffers& buffers,
              const topo::RingEmbedding& ring,
              AllReduceTrace::Observer observer, Protocol proto)
{
    return runAllReduce(comm, buffers,
                        sched::ringProgram(ring, sched::RingPhase::kAllReduce),
                        std::move(observer), proto, "ring_allreduce");
}

AllReduceTrace
treeAllReduce(Communicator& comm, RankBuffers& buffers,
              const topo::TreeEmbedding& embedding, int num_chunks,
              TreePhaseMode mode, AllReduceTrace::Observer observer,
              Protocol proto)
{
    return runAllReduce(
        comm, buffers,
        sched::treeProgram(embedding, sched::TreeDirection::kAllReduce,
                           mode, num_chunks),
        std::move(observer), proto, "tree_allreduce");
}

AllReduceTrace
doubleTreeAllReduce(Communicator& comm, RankBuffers& buffers,
                    const topo::DoubleTreeEmbedding& embedding,
                    int chunks_per_tree, TreePhaseMode mode,
                    AllReduceTrace::Observer observer, Protocol proto)
{
    return runAllReduce(comm, buffers,
                        sched::doubleTreeProgram(embedding, mode,
                                                 chunks_per_tree),
                        std::move(observer), proto, "double_tree_allreduce");
}

void
treeBroadcast(Communicator& comm, RankBuffers& buffers,
              const topo::TreeEmbedding& embedding, int num_chunks,
              FlowId flow, Protocol proto)
{
    runProgram(comm, buffers,
               sched::treeProgram(embedding, sched::TreeDirection::kBroadcast,
                                  sched::PhaseMode::kTwoPhase, num_chunks,
                                  sched::TreeFlows{flow, flow}),
               nullptr, proto, "tree_broadcast");
}

void
treeReduce(Communicator& comm, RankBuffers& buffers,
           const topo::TreeEmbedding& embedding, int num_chunks,
           FlowId flow, Protocol proto)
{
    runProgram(comm, buffers,
               sched::treeProgram(embedding, sched::TreeDirection::kReduce,
                                  sched::PhaseMode::kTwoPhase, num_chunks,
                                  sched::TreeFlows{flow, flow}),
               nullptr, proto, "tree_reduce");
}

void
ringReduceScatter(Communicator& comm, RankBuffers& buffers,
                  const topo::RingEmbedding& ring, Protocol proto)
{
    runProgram(comm, buffers,
               sched::ringProgram(ring, sched::RingPhase::kReduceScatter),
               nullptr, proto, "ring_reduce_scatter");
}

void
ringAllGather(Communicator& comm, RankBuffers& buffers,
              const topo::RingEmbedding& ring, Protocol proto)
{
    runProgram(comm, buffers,
               sched::ringProgram(ring, sched::RingPhase::kAllGather),
               nullptr, proto, "ring_all_gather");
}

AllReduceTrace
allReduce(Communicator& comm, RankBuffers& buffers,
          const topo::Graph& graph, const AllReduceOptions& options)
{
    const int p = comm.numRanks();
    // kAuto resolves through the tuner's selection table: for the
    // fixed algorithm the caller picked, choose the protocol the α-β
    // model (or a cached measurement) predicts fastest at this size.
    Protocol proto = options.protocol;
    if (proto == Protocol::kAuto)
        proto = Tuner::global().chooseProtocol(
            graph, p, buffers.empty() ? 0 : buffers[0].size(),
            options.algorithm);
    switch (options.algorithm) {
      case AllReduceAlgorithm::kRing: {
        const topo::RingEmbedding ring =
            topo::findHamiltonianRing(graph, p);
        CCUBE_CHECK(ring.size() == p,
                    "no Hamiltonian ring on this topology");
        return ringAllReduce(comm, buffers, ring, options.observer,
                             proto);
      }
      case AllReduceAlgorithm::kTree:
      case AllReduceAlgorithm::kOverlappedTree: {
        const topo::TreeEmbedding embedding =
            topo::embedTree(graph, topo::BinaryTree::inorder(p));
        const TreePhaseMode mode =
            options.algorithm == AllReduceAlgorithm::kTree
                ? TreePhaseMode::kTwoPhase
                : TreePhaseMode::kOverlapped;
        return treeAllReduce(comm, buffers, embedding,
                             options.num_chunks, mode, options.observer,
                             proto);
      }
      case AllReduceAlgorithm::kDoubleTree:
      case AllReduceAlgorithm::kCCubeDoubleTree: {
        topo::EmbeddingSearchOptions search;
        search.num_ranks = p;
        auto found = topo::findConflictFreeDoubleTree(graph, search);
        CCUBE_CHECK(found.has_value(),
                    "no conflict-free double tree on this topology");
        const TreePhaseMode mode =
            options.algorithm == AllReduceAlgorithm::kDoubleTree
                ? TreePhaseMode::kTwoPhase
                : TreePhaseMode::kOverlapped;
        return doubleTreeAllReduce(comm, buffers, *found,
                                   options.num_chunks, mode,
                                   options.observer, proto);
      }
    }
    util::panic("unknown AllReduce algorithm");
}

} // namespace ccl
} // namespace ccube
