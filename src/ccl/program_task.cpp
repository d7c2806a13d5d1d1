#include "ccl/program_task.h"

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ccl/state_machine.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

namespace {

/**
 * Blocked-op disposition: under Simple the task waits on the mailbox
 * semaphore (woken by the peer's post); under LL no semaphore will ever
 * be posted, so the task asks to be retried (the engine polls the
 * abort epoch before every step, so a dead peer still unwedges the
 * batch via the watchdog).
 */
StepStatus
awaitArrival(StepContext& ctx, Mailbox& box, Protocol proto)
{
    if (proto == Protocol::kLL)
        return ctx.retryLater();
    return ctx.parkOnArrival(box);
}

StepStatus
awaitFreeSlot(StepContext& ctx, Mailbox& box, Protocol proto)
{
    if (proto == Protocol::kLL)
        return ctx.retryLater();
    return ctx.parkOnFreeSlot(box);
}

/**
 * Trace span for resumable tasks. obs::ScopedSpan assumes a phase
 * runs start-to-finish on one OS thread; a pooled task parks and
 * migrates across workers mid-phase, so the start stamp lives in task
 * state instead and one complete event is emitted at phase end with
 * explicit timestamps, on the task's RankTask::traceTrack() row.
 */
class PhaseSpan
{
  public:
    /** Stamps the phase start (no-op while tracing is disabled). */
    void begin()
    {
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        start_us_ = recorder.enabled() ? recorder.wallNowUs() : -1.0;
    }

    /** Emits the complete event; a no-op without a matching begin. */
    void end(std::string_view name, const RankTask& task)
    {
        if (start_us_ < 0.0)
            return;
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        if (recorder.enabled())
            recorder.completeEvent(name, "ccl.allreduce",
                                   obs::pids::cclRank(task.rank()),
                                   task.traceTrack(), start_us_,
                                   recorder.wallNowUs() - start_us_);
        start_us_ = -1.0;
    }

  private:
    double start_us_ = -1.0;
};

/** What every task of one collective shares. */
struct Collective {
    std::shared_ptr<const BoundProgram> bound;
    /** bound->boxes.data(), so the step loop reaches a mailbox
     *  without a second indirection. */
    Mailbox* const* boxes = nullptr;
    std::vector<sched::ChunkRange<std::size_t>> geometry; ///< per chunk
    RankBuffers* buffers = nullptr;
    AllReduceTrace* trace = nullptr; ///< the run's final markers
    Protocol proto = Protocol::kSimple;
};

/** One program thread, walked with the non-blocking mailbox ops. */
class ProgramTask final : public RankTask
{
  public:
    ProgramTask(std::shared_ptr<const Collective> c, int thread)
        : RankTask(
              c->bound->program.threads[static_cast<std::size_t>(thread)].rank,
              c->bound->program.threads[static_cast<std::size_t>(thread)].role),
          c_(std::move(c)), cursor_(c_->bound->program, thread),
          buffer_((*c_->buffers)[static_cast<std::size_t>(rank())])
    {
    }

    StepStatus step(StepContext& ctx) override
    {
        for (;;) {
            syncSpan();
            if (cursor_.done())
                return StepStatus::kDone;
            const sched::Step& s = cursor_.step();
            const int chunk = cursor_.chunk();
            switch (s.op) {
              case sched::Op::kSend: {
                Mailbox& box = mailbox(s.edge);
                begin(ctx, box, Mailbox::OpKind::kSend);
                if (!box.trySend(slice(), chunk, c_->proto))
                    return awaitFreeSlot(ctx, box, c_->proto);
                break;
              }
              case sched::Op::kRecv:
              case sched::Op::kRecvReduce: {
                Mailbox& box = mailbox(s.edge);
                begin(ctx, box, Mailbox::OpKind::kRecv);
                const std::span<float> out = slice();
                int tag = -1;
                const bool got =
                    s.op == sched::Op::kRecv
                        ? box.tryRecvInto(out, &tag, c_->proto)
                        : box.tryRecvReduce(out, &tag, c_->proto);
                if (!got)
                    return awaitArrival(ctx, box, c_->proto);
                CCUBE_CHECK(tag == chunk, "chunk " << tag << " arrived, "
                                                   << chunk << " expected");
                break;
              }
              case sched::Op::kForward: {
                // Peek the upstream chunk in place, send it on, then
                // release the upstream buffer — zero staging copies.
                Mailbox& in = mailbox(s.edge);
                Mailbox& out = mailbox(s.out);
                std::span<const float> data;
                int tag = -1;
                if (!in_claimed_) {
                    if (!in_begun_) {
                        ctx.beginOp(in, Mailbox::OpKind::kRecv);
                        in_begun_ = true;
                    }
                    if (!in.tryPeek(&data, &tag, c_->proto))
                        return awaitArrival(ctx, in, c_->proto);
                    in_claimed_ = true;
                }
                const bool have = in.tryPeek(&data, &tag, c_->proto);
                CCUBE_CHECK(have, "claimed forward chunk vanished");
                begin(ctx, out, Mailbox::OpKind::kSend);
                if (!out.trySend(data, tag, c_->proto))
                    return awaitFreeSlot(ctx, out, c_->proto);
                in.releaseFront();
                in_claimed_ = false;
                in_begun_ = false;
                break;
              }
              case sched::Op::kFinal:
                c_->trace->record(rank(), cursor_.globalChunk());
                break;
            }
            op_begun_ = false;
            if (cursor_.advance()) {
                syncSpan();
                return StepStatus::kContinue;
            }
        }
    }

  private:
    /** The current step's chunk of this rank's buffer. */
    std::span<float> slice() const
    {
        const sched::ChunkRange<std::size_t>& range =
            c_->geometry[static_cast<std::size_t>(cursor_.globalChunk())];
        return buffer_.subspan(range.begin, range.end - range.begin);
    }

    Mailbox& mailbox(int edge) const
    {
        return *c_->boxes[edge];
    }

    /** beginOp once per logical op, however often it is retried. */
    void begin(StepContext& ctx, Mailbox& box, Mailbox::OpKind kind)
    {
        if (!op_begun_) {
            ctx.beginOp(box, kind);
            op_begun_ = true;
        }
    }

    /** Closes the span of a finished loop, opens the next loop's. */
    void syncSpan()
    {
        const int loop = cursor_.loop();
        if (loop == span_loop_)
            return;
        if (span_loop_ >= 0)
            span_.end(loopAt(span_loop_).span, *this);
        span_loop_ = loop;
        if (!cursor_.done() && !loopAt(loop).span.empty())
            span_.begin();
    }

    const sched::Loop& loopAt(int loop) const
    {
        return c_->bound->program.loops[static_cast<std::size_t>(loop)];
    }

    std::shared_ptr<const Collective> c_;
    sched::Cursor cursor_;
    std::span<float> buffer_;
    bool op_begun_ = false;
    bool in_begun_ = false;   ///< forward: upstream op begun
    bool in_claimed_ = false; ///< forward: upstream chunk peeked
    int span_loop_ = -1;
    PhaseSpan span_;
};

} // namespace

std::shared_ptr<const BoundProgram>
bindProgram(Communicator& comm, sched::Program program)
{
    auto bound = std::make_shared<BoundProgram>();
    bound->comm = &comm;
    bound->boxes.reserve(program.edges.size());
    for (const sched::Edge& edge : program.edges)
        bound->boxes.push_back(
            &comm.mailbox(edge.src, edge.dst, edge.flow));
    bound->program = std::move(program);
    return bound;
}

AllReduceTrace
runProgram(Communicator& comm, RankBuffers& buffers, sched::Program program,
           Protocol proto, AllReduceTrace::Observer observer)
{
    return runProgram(comm, buffers, bindProgram(comm, std::move(program)),
                      proto, std::move(observer));
}

AllReduceTrace
runProgram(Communicator& comm, RankBuffers& buffers,
           std::shared_ptr<const BoundProgram> bound, Protocol proto,
           AllReduceTrace::Observer observer)
{
    CCUBE_CHECK(bound->comm == &comm,
                "program bound to another communicator");
    const sched::Program& program = bound->program;
    CCUBE_CHECK(program.num_ranks == comm.numRanks(),
                "schedule/communicator size mismatch");
    CCUBE_CHECK(static_cast<int>(buffers.size()) == comm.numRanks(),
                "one buffer per rank required");
    for (const auto& b : buffers) {
        CCUBE_CHECK(b.size() == buffers[0].size(),
                    "all buffers must be equally sized");
    }
    AllReduceTrace trace(comm.numRanks(), std::move(observer));
    auto c = std::make_shared<Collective>();
    c->buffers = &buffers;
    c->trace = &trace;
    c->proto = proto;
    c->geometry = program.geometry(buffers[0].size());
    c->bound = std::move(bound);
    c->boxes = c->bound->boxes.data();

    std::vector<std::unique_ptr<RankTask>> tasks;
    tasks.reserve(program.threads.size());
    for (std::size_t t = 0; t < program.threads.size(); ++t)
        tasks.push_back(
            std::make_unique<ProgramTask>(c, static_cast<int>(t)));
    comm.runTasks(std::move(tasks), program.op, proto);
    return trace;
}

} // namespace ccl
} // namespace ccube
