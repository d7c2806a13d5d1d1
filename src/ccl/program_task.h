#ifndef CCUBE_CCL_PROGRAM_TASK_H_
#define CCUBE_CCL_PROGRAM_TASK_H_

/**
 * @file
 * The functional interpreter of sched::Program — the one entry point
 * of every ccl:: collective. Callers build the program with a
 * sched:: builder (Communicator::runAuto builds the tuner's pick) and
 * hand it here; each program thread becomes one RankTask driven by
 * Communicator::runTasks() on the persistent rank threads or the
 * shared pool (ccl/state_machine.h).
 *
 * A task walks its thread's steps with the non-blocking mailbox ops:
 * every logical op starts through StepContext::beginOp() exactly once
 * (so FaultInjector at-op indices do not depend on retries), a blocked
 * op parks on its semaphore (Simple) or asks to be retried (LL: no
 * semaphore is ever posted), and the task yields at the end of every
 * loop iteration. Edges resolve to mailboxes once (bindProgram) and
 * chunks to buffer slices (Program::geometry) once per run, so the
 * chunk loops touch no registry and no routes. A bound program is
 * immutable and shared, not copied, by every task of every run that
 * uses it — runAuto keeps its bound programs in the communicator's
 * plan (ccl/tuner.h) and hands the same one to each call. Reduction order
 * over children and chunk tags are fixed by the program, so float
 * results are byte-identical across engines and protocols.
 */

#include <memory>
#include <vector>

#include "ccl/allreduce.h"
#include "ccl/communicator.h"
#include "sched/program.h"

namespace ccube {
namespace ccl {

/** A program with every edge resolved to its mailbox on one
 *  communicator. */
struct BoundProgram {
    sched::Program program;
    const Communicator* comm = nullptr; ///< whose mailboxes boxes are
    std::vector<Mailbox*> boxes;        ///< per program edge
};

/**
 * Resolves every edge of @p program to @p comm's mailbox. The
 * pointers stay valid for @p comm's lifetime: clearAbort() flushes
 * mailboxes but never frees them, so a program bound before an abort
 * runs unchanged after it.
 */
std::shared_ptr<const BoundProgram> bindProgram(Communicator& comm,
                                                sched::Program program);

/**
 * Runs @p program over @p buffers (one per rank, equal length — both
 * checked, as is the program's rank count) as the collective
 * program.op (watchdog attribution) with wire protocol @p proto.
 * Returns the final markers in completion order; @p observer sees
 * each one as it is recorded (AllReduceTrace). Programs without final
 * markers (reduce, broadcast, reduce-scatter, all-gather) return an
 * empty trace.
 */
AllReduceTrace runProgram(Communicator& comm, RankBuffers& buffers,
                          sched::Program program,
                          Protocol proto = Protocol::kSimple,
                          AllReduceTrace::Observer observer = {});

/** runProgram over a program already bound to @p comm (bindProgram);
 *  the run shares @p bound instead of copying it. */
AllReduceTrace runProgram(Communicator& comm, RankBuffers& buffers,
                          std::shared_ptr<const BoundProgram> bound,
                          Protocol proto = Protocol::kSimple,
                          AllReduceTrace::Observer observer = {});

} // namespace ccl
} // namespace ccube

#endif // CCUBE_CCL_PROGRAM_TASK_H_
