#include "ccl/communicator.h"

#include <exception>
#include <sstream>
#include <string>

#include "ccl/state_machine.h"
#include "ccl/tuner.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

Communicator::Communicator(int num_ranks, int mailbox_slots,
                           RankExecutor::Mode exec_mode)
    : num_ranks_(num_ranks),
      mailbox_slots_(mailbox_slots),
      exec_mode_(exec_mode),
      fault_(num_ranks)
{
    CCUBE_CHECK(num_ranks >= 1, "need at least one rank");
    // A mailbox key packs src·P + dst into 32 bits.
    CCUBE_CHECK(num_ranks <= 65536, "too many ranks " << num_ranks);
    CCUBE_CHECK(mailbox_slots >= 1, "need at least one mailbox slot");
}

Communicator::~Communicator() = default;

Mailbox&
Communicator::mailbox(int src, int dst, int flow)
{
    CCUBE_CHECK(src >= 0 && src < num_ranks_, "bad src rank " << src);
    CCUBE_CHECK(dst >= 0 && dst < num_ranks_, "bad dst rank " << dst);
    CCUBE_CHECK(src != dst, "no self mailboxes");
    CCUBE_CHECK(flow >= 0, "negative flow id " << flow);
    const std::uint64_t pair = static_cast<std::uint64_t>(src) *
                                   static_cast<std::uint64_t>(num_ranks_) +
                               static_cast<std::uint64_t>(dst);
    const std::uint64_t key =
        (pair << 32) | static_cast<std::uint64_t>(flow);
    std::lock_guard<std::mutex> guard(mailboxes_mutex_);
    std::unique_ptr<Mailbox>& box = mailboxes_[key];
    if (!box)
        box = std::make_unique<Mailbox>(mailbox_slots_, src, dst, flow);
    return *box;
}

RankExecutor&
Communicator::executor()
{
    std::call_once(executor_once_, [this]() {
        executor_ = std::make_unique<RankExecutor>(num_ranks_);
    });
    return *executor_;
}

std::chrono::nanoseconds
Communicator::defaultDeadline()
{
    // Zero (or unset) disables the watchdog.
    static const std::chrono::nanoseconds deadline =
        std::chrono::milliseconds{
            util::envInt("CCUBE_CCL_DEADLINE_MS", 0)};
    return deadline;
}

void
Communicator::setDeadline(std::chrono::nanoseconds deadline)
{
    deadline_ = deadline;
}

void
Communicator::setFaultInjector(FaultInjector* injector)
{
    fault_.setInjector(injector);
}

void
Communicator::abort(CollectiveError::Info info)
{
    if (info.op.empty())
        info.op = fault_.currentOp();
    if (!fault_.abortState().trip(std::move(info)))
        return; // already aborted this generation
    const CollectiveError::Info& stored = fault_.abortState().info();
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        // Carry the wait-for chain verdict on the abort instant so
        // post-mortem analysis (obs::diff) can name the chain
        // terminus, not just the blamed channel endpoint.
        obs::TraceEvent event;
        event.name = "ccl.abort";
        event.cat = "ccl.fault";
        event.phase = 'i';
        event.pid = obs::pids::cclRank(stored.failed_rank);
        event.tid = 0;
        event.ts_us = recorder.wallNowUs();
        if (stored.chain_terminus >= 0) {
            event.args.emplace_back(
                "terminus",
                static_cast<double>(stored.chain_terminus));
            event.args.emplace_back(
                "chain_len", static_cast<double>(stored.chain_len));
        }
        recorder.record(std::move(event));
    }
    if (!stored.stall_chain.empty())
        util::logWarn("ccl", formatStallReport(stored));
    obs::MetricRegistry::global().addCounter("ccl.aborts", 1.0);
    obs::Monitor& monitor = obs::Monitor::global();
    if (monitor.enabled())
        monitor.noteWatchdogTrip(stored.failed_rank);
    std::ostringstream msg;
    msg << "aborting collective: " << CollectiveError(stored).what();
    util::logWarn("ccl", msg.str());
}

void
Communicator::setClearAbortHook(std::function<void()> hook)
{
    clear_abort_hook_ = std::move(hook);
}

void
Communicator::clearAbort()
{
    // By the time an abort surfaces, run() has finished every task of
    // the collective, so the mailboxes are quiescent — but they may still hold
    // chunks the dead collective posted and never consumed. Flush them
    // so the next collective starts from a clean channel state.
    //
    // The flush-then-clear pair is epoch-checked: capture the epoch
    // AND the trip-attempt count, flush, and clear only if that exact
    // generation is still live and untouched. An abort() racing in
    // between (it is callable from any thread) either advances the
    // epoch or — when it loses first-trip-wins on the already-tripped
    // generation — bumps the attempt count; both fail the conditional
    // clear and the loop flushes again. clearAbort() never retires a
    // generation it did not flush for, and never leaves a stale
    // tripped generation behind.
    for (;;) {
        const std::uint64_t observed_attempts =
            fault_.abortState().tripAttempts();
        const std::uint64_t observed = fault_.abortState().epoch();
        {
            std::lock_guard<std::mutex> guard(mailboxes_mutex_);
            for (const auto& [key, box] : mailboxes_)
                box->reset();
        }
        if (clear_abort_hook_)
            clear_abort_hook_();
        if (fault_.abortState().clearIfEpoch(observed,
                                             observed_attempts))
            return;
    }
}

namespace {

/** One counter per (protocol) so traces/benchmarks can confirm which
 *  wire protocol a collective actually ran (runAuto's pick is
 *  otherwise invisible from outside). */
void
noteProtocol(Protocol proto)
{
    obs::MetricRegistry::global().addCounter(
        std::string("ccl.proto.") + protocolName(proto), 1.0);
}

/** A rank body as a task: one step that runs it to completion. */
class BodyStep final : public RankTask
{
  public:
    BodyStep(int rank, const std::function<void(int rank)>& body)
        : RankTask(rank, "main"), body_(body)
    {
    }

    StepStatus step(StepContext&) override
    {
        body_(rank());
        return StepStatus::kDone;
    }

  private:
    const std::function<void(int rank)>& body_;
};

} // namespace

void
Communicator::run(const std::function<void(int rank)>& body,
                  const char* op, Protocol proto)
{
    CCUBE_CHECK(body, "run() needs a body");
    std::vector<std::unique_ptr<RankTask>> tasks;
    tasks.reserve(static_cast<std::size_t>(num_ranks_));
    for (int r = 0; r < num_ranks_; ++r)
        tasks.push_back(std::make_unique<BodyStep>(r, body));
    noteProtocol(proto);
    runEnvelope(op, executor(), std::move(tasks));
}

void
Communicator::runTasks(std::vector<std::unique_ptr<RankTask>> tasks,
                       const char* op, Protocol proto)
{
    noteProtocol(proto);
    // The engine installs the fault context itself around every step
    // (pooled tasks migrate across workers, so a thread-scoped guard
    // here would cover the wrong threads).
    StateMachineEngine& engine =
        exec_mode_ == RankExecutor::Mode::kStateMachine
            ? StateMachineEngine::shared()
            : executor();
    runEnvelope(op, engine, std::move(tasks));
}

void
Communicator::runEnvelope(const char* op, StateMachineEngine& engine,
                          std::vector<std::unique_ptr<RankTask>> tasks)
{
    // A tripped epoch poisons the communicator until clearAbort(),
    // mirroring NCCL's post-abort semantics.
    if (fault_.abortState().aborted())
        throw CollectiveError(fault_.abortState().info());

    fault_.beginCollective(op);

    // Live-monitor collective edge: wall-clock latency of the whole
    // collective (all ranks), fed to the SLO engine. Run ordinal 0
    // marks wall-clock (non-deterministic) series entries.
    obs::Monitor& monitor = obs::Monitor::global();
    const bool monitored = monitor.enabled();
    const auto wall_start = std::chrono::steady_clock::now();

    const std::chrono::nanoseconds deadline = deadline_;
    const double deadline_s =
        std::chrono::duration<double>(deadline).count();
    std::exception_ptr err;
    bool killed = false;
    try {
        // On expiry the engine's wait loop runs the watchdog action on
        // this thread: snapshot progress, blame the slowest (or
        // injector-killed) rank, trip the epoch so every bounded spin
        // unblocks.
        engine.run(std::move(tasks), &fault_,
                   deadline.count() > 0
                       ? wall_start + deadline
                       : StateMachineEngine::kNoDeadline,
                   [this, deadline_s]() {
                       abort(fault_.deadlineInfo(deadline_s));
                   });
    } catch (const RankKilled&) {
        err = std::current_exception();
        killed = true;
    } catch (...) {
        err = std::current_exception();
    }

    if (killed) {
        // A killed task no peer waited for ends the collective without
        // tripping the epoch, yet its mailboxes may still hold chunks
        // it never delivered or consumed: poison the communicator, so
        // clearAbort() flushes them before it is reused. The dead rank
        // is blamed (no-op when the deadline already tripped).
        abort(fault_.deadlineInfo(deadline_s));
    }

    if (monitored) {
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - wall_start;
        const bool completed =
            !fault_.abortState().aborted() && err == nullptr;
        monitor.collectiveComplete(op, 0.0, wall.count(), 0.0,
                                   completed);
    }

    // Abort wins over the underlying exception (which is typically the
    // AbortedWait/RankKilled that the abort itself provoked): callers
    // get one structured error with the blame attached.
    if (fault_.abortState().aborted())
        throw CollectiveError(fault_.abortState().info());
    if (err)
        std::rethrow_exception(err);
}

} // namespace ccl
} // namespace ccube
