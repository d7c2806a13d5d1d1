#ifndef CCUBE_CCL_DOUBLE_TREE_ALLREDUCE_H_
#define CCUBE_CCL_DOUBLE_TREE_ALLREDUCE_H_

/**
 * @file
 * The one per-algorithm ccl:: wrapper left. Everything else builds
 * the program with sched::doubleTreeProgram and calls runProgram.
 */

#include <utility>

#include "ccl/program_task.h"
#include "topo/double_tree.h"

namespace ccube {
namespace ccl {

/** Remains for perfbench/perf_ladder until the next [benchmark] change. */
using TreePhaseMode = sched::PhaseMode;

/** Remains for perfbench/perf_ladder until the next [benchmark] change:
 *  runProgram(doubleTreeProgram(@p embedding, @p mode,
 *  @p chunks_per_tree), @p proto, @p observer). */
inline AllReduceTrace
doubleTreeAllReduce(Communicator& comm, RankBuffers& buffers,
                    const topo::DoubleTreeEmbedding& embedding,
                    int chunks_per_tree, TreePhaseMode mode,
                    AllReduceTrace::Observer observer = {},
                    Protocol proto = Protocol::kSimple)
{
    return runProgram(comm, buffers,
                      sched::doubleTreeProgram(embedding, mode,
                                               chunks_per_tree),
                      proto, std::move(observer));
}

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_DOUBLE_TREE_ALLREDUCE_H_
