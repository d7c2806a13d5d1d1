#include "ccl/state_machine.h"

#include <chrono>
#include <cstddef>
#include <exception>
#include <string>
#include <utility>

#include "ccl/fault.h"
#include "ccl/mailbox.h"
#include "obs/context.h"
#include "obs/monitor.h"
#include "obs/profiler.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/spin_wait.h"

namespace ccube {
namespace ccl {

namespace {

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

/**
 * One run() invocation: the tasks, their shared fault context, and
 * the completion latch. Stack-local to run(); outlives every task of
 * the batch because run() blocks until remaining hits zero.
 */
struct StateMachineEngine::Batch {
    CommFaultContext* fault = nullptr;
    std::vector<std::unique_ptr<RankTask>> tasks;
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
};

StateMachineEngine::StateMachineEngine(int num_workers,
                                       Placement placement)
    : placement_(placement),
      queues_(static_cast<std::size_t>(num_workers < 1 ? 1
                                                       : num_workers))
{
    const int count = static_cast<int>(queues_.size());
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        workers_.emplace_back([this, i]() { workerLoop(i); });
    if (placement_ == Placement::kRankPinned)
        return;

    // Live engine gauges for obs::Monitor snapshots: pool size,
    // parked/runnable task counts, and the process-wide park/steal
    // totals of obs::RankCounters (every pooled engine reports them).
    monitor_source_ = obs::Monitor::global().addSource(
        [this](double,
               std::vector<std::pair<std::string, double>>& out) {
            out.emplace_back("ccl.sm.workers",
                             static_cast<double>(workerCount()));
            out.emplace_back("ccl.sm.parked",
                             static_cast<double>(parkedNow()));
            out.emplace_back("ccl.sm.runnable",
                             static_cast<double>(runnableNow()));
            const obs::RankCounters& counters =
                obs::RankCounters::global();
            out.emplace_back(
                "ccl.sm.parks",
                static_cast<double>(counters.totalSmParks()));
            out.emplace_back(
                "ccl.sm.steals",
                static_cast<double>(counters.totalSmSteals()));
        });
}

StateMachineEngine::~StateMachineEngine()
{
    monitor_source_.reset();
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        stop_ = true;
    }
    idle_cv_.notify_all();
    for (WorkerQueue& queue : queues_) {
        std::lock_guard<std::mutex> lock(queue.mutex);
        queue.ready.notify_all();
    }
    for (std::thread& worker : workers_)
        worker.join();
}

StateMachineEngine&
StateMachineEngine::shared()
{
    // Intentionally leaked: communicators may be destroyed during
    // static destruction, after a stack-allocated engine would have
    // been torn down.
    static StateMachineEngine* engine =
        new StateMachineEngine(defaultWorkerCount());
    return *engine;
}

int
StateMachineEngine::defaultWorkerCount()
{
    static const int count = []() {
        // Zero (or unset) picks the hardware default.
        if (const int n = util::envInt("CCUBE_CCL_SM_WORKERS", 0))
            return n;
        const unsigned hw = std::thread::hardware_concurrency();
        const int doubled = static_cast<int>(hw) * 2;
        return doubled < 2 ? 2 : doubled;
    }();
    return count;
}

void
StateMachineEngine::enqueue(RankTask& task)
{
    WorkerQueue& queue =
        queues_[static_cast<std::size_t>(task.home_worker_)];
    {
        std::lock_guard<std::mutex> lock(queue.mutex);
        queue.tasks.push_back(&task);
        queue.nonempty.store(true, std::memory_order_release);
    }
    if (placement_ == Placement::kRankPinned) {
        queue.ready.notify_one();
        return;
    }
    {
        // The increment happens under idle_mutex_ so a worker checking
        // the wait predicate can never miss it (decrements are
        // lock-free: a stale positive just causes one empty rescan).
        std::lock_guard<std::mutex> lock(idle_mutex_);
        pending_.fetch_add(1, std::memory_order_relaxed);
    }
    idle_cv_.notify_one();
}

void
StateMachineEngine::wake(RankTask& task)
{
    // Exactly-once handoff: the caller owns the wake (it removed the
    // waiter node from the semaphore list). Exchange tells us whether
    // the parking worker already published kParked — then we schedule
    // — or is still between registration and publication (kParking) —
    // then its failed CAS schedules.
    const int old = task.park_state_.exchange(
        RankTask::kWoken, std::memory_order_acq_rel);
    if (old == RankTask::kParked) {
        parked_now_.fetch_sub(1, std::memory_order_relaxed);
        enqueue(task);
    }
}

void
RankTask::semaphoreReady()
{
    engine_->wake(*this);
}

void
StateMachineEngine::sweepAborted(Batch& batch)
{
    // Claim still-parked tasks of this batch: cancelPark's removal is
    // the ownership handshake, so a racing poster and this sweep can
    // never both schedule the same task. Repeated every poll while
    // aborted, catching tasks that parked after the epoch tripped.
    for (const std::unique_ptr<RankTask>& task : batch.tasks) {
        if (task->park_state_.load(std::memory_order_acquire) !=
            RankTask::kParked)
            continue;
        BoundedSemaphore* sem = task->parked_sem_;
        if (sem != nullptr && sem->cancelPark(*task))
            wake(*task);
    }
}

RankTask*
StateMachineEngine::tryPop(int index, bool* stolen)
{
    WorkerQueue& own = queues_[static_cast<std::size_t>(index)];
    {
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            RankTask* task = own.tasks.front();
            own.tasks.pop_front();
            *stolen = false;
            return task;
        }
    }
    const int count = static_cast<int>(queues_.size());
    obs::ScopedProfPhase prof(obs::ProfPhase::kSteal, -1);
    for (int offset = 1; offset < count; ++offset) {
        WorkerQueue& victim =
            queues_[static_cast<std::size_t>((index + offset) % count)];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            // Thieves take the back — the task least likely to be
            // cache-warm on the victim.
            RankTask* task = victim.tasks.back();
            victim.tasks.pop_back();
            *stolen = true;
            return task;
        }
    }
    return nullptr;
}

void
StateMachineEngine::workerLoop(int index)
{
    if (placement_ == Placement::kRankPinned) {
        pinnedLoop(index);
        return;
    }
    obs::setThreadRank(-1);
    obs::labelThread(
        ("sm worker " + std::to_string(index)).c_str());
    while (true) {
        bool stolen = false;
        RankTask* task = tryPop(index, &stolen);
        if (task != nullptr) {
            pending_.fetch_sub(1, std::memory_order_relaxed);
            runTask(*task, index, stolen);
            continue;
        }
        obs::ScopedProfPhase prof(obs::ProfPhase::kIdle, -1);
        std::unique_lock<std::mutex> lock(idle_mutex_);
        if (stop_)
            return;
        idle_cv_.wait(lock, [this]() {
            return stop_ ||
                   pending_.load(std::memory_order_relaxed) > 0;
        });
        if (stop_ &&
            pending_.load(std::memory_order_relaxed) == 0)
            return;
    }
}

void
StateMachineEngine::pinnedLoop(int index)
{
    // Rank @p index's persistent thread: one loop over the rank's step
    // list, the shape of an NCCL channel's persistent kernel.
    obs::setThreadRank(index);
    obs::labelThread(("rank " + std::to_string(index)).c_str());
    WorkerQueue& queue = queues_[static_cast<std::size_t>(index)];
    obs::RankCounters& counters = obs::RankCounters::global();
    std::vector<RankTask*> tasks;
    RankTask* shown = nullptr; ///< task whose wait site is published
    const char* shown_label = nullptr; ///< ...and which of its sites
    util::SpinWait backoff;
    for (;;) {
        if (tasks.empty() ||
            queue.nonempty.load(std::memory_order_acquire)) {
            std::unique_lock<std::mutex> lock(queue.mutex);
            if (tasks.empty() && queue.tasks.empty()) {
                // Between collectives: sleep until run() hands over
                // this rank's next tasks.
                if (stop_)
                    return;
                counters.addExecutorPark();
                queue.ready.wait(lock, [&]() {
                    return stop_ || !queue.tasks.empty();
                });
                counters.addExecutorUnpark();
                if (queue.tasks.empty())
                    return;
            }
            for (RankTask* task : queue.tasks) {
                task->trace_track_ = obs::threadTrack();
                tasks.push_back(task);
            }
            queue.tasks.clear();
            queue.nonempty.store(false, std::memory_order_relaxed);
        }
        bool progressed = false;
        for (std::size_t i = 0; i < tasks.size();) {
            RankTask& task = *tasks[i];
            StepContext ctx(*this, task);
            const StepStatus status = stepTask(task, ctx);
            if (!ctx.blocked_ || ctx.began_op_)
                progressed = true;
            if (status == StepStatus::kDone) {
                // The task may already be freed: compare, never touch.
                if (shown == &task)
                    shown = nullptr;
                tasks.erase(tasks.begin() +
                            static_cast<std::ptrdiff_t>(i));
                continue;
            }
            if (shown == &task && !task.wait_published_)
                shown = nullptr; // stepTask cleared the site
            ++i;
        }
        if (progressed || tasks.empty()) {
            backoff = util::SpinWait();
            continue;
        }
        // Every task is waiting on a peer. Publish one wait site for
        // watchdog blame (rewriting it only when it changed), then back
        // off exactly like a blocked thread-per-rank wait (PAUSE
        // bursts, then yield).
        RankTask& front = *tasks.front();
        if (&front != shown || front.wait_label_ != shown_label) {
            if (shown != nullptr)
                shown->wait_published_ = false;
            publishWait(front);
            shown = &front;
            shown_label = front.wait_label_;
        }
        backoff.once([]() {});
    }
}

void
StateMachineEngine::beginStall(RankTask& task, bool slot_full)
{
    // Only a pinned task polls through its waits; a pooled one parks,
    // and its parks are counted as such (sm_parks, parked time).
    if (placement_ != Placement::kRankPinned || task.stall_begin_ns_ != 0)
        return;
    task.stall_begin_ns_ = steadyNowNs();
    obs::RankCounters& counters = obs::RankCounters::global();
    counters.addWaitStall();
    if (slot_full)
        counters.addSlotFullStall();
}

void
StateMachineEngine::endStall(RankTask& task)
{
    if (task.stall_begin_ns_ == 0)
        return;
    const std::uint64_t now = steadyNowNs();
    if (now > task.stall_begin_ns_)
        obs::RankCounters::global().addWaitStallNs(
            now - task.stall_begin_ns_);
    task.stall_begin_ns_ = 0;
}

void
StateMachineEngine::publishWait(RankTask& task)
{
    CommFaultContext* fault = task.batch_->fault;
    if (fault == nullptr || task.wait_label_ == nullptr)
        return;
    fault->noteWaitBegin(task.wait_label_, task.wait_flow_,
                         task.wait_peer_);
    task.wait_published_ = true;
}

StepStatus
StateMachineEngine::stepTask(RankTask& task, StepContext& ctx)
{
    Batch* batch = task.batch_;
    obs::setThreadRank(task.rank());
    ScopedFaultContext fault_scope(batch->fault);
    StepStatus status = StepStatus::kDone;
    std::exception_ptr error;
    try {
        // Abort/deadline check at every resume point — the state-
        // machine analog of the bounded spins' periodic abortPoll.
        abortPoll();
        obs::ScopedProfPhase prof(obs::ProfPhase::kStep, task.rank());
        status = task.step(ctx);
    } catch (...) {
        error = std::current_exception();
    }
    if (error || !(ctx.blocked_ || status == StepStatus::kParked))
        endStall(task);
    if (error) {
        finishTask(task, error);
        return StepStatus::kDone;
    }
    if (task.wait_published_ && !ctx.blocked_) {
        // Pinned: the wait publishWait() announced is over.
        task.wait_published_ = false;
        batch->fault->noteWaitEnd();
    }
    if (status == StepStatus::kDone) {
        obs::RankCounters::global().addExecutorTask();
        finishTask(task, nullptr);
    }
    return status;
}

void
StateMachineEngine::runTask(RankTask& task, int worker, bool stolen)
{
    Batch* batch = task.batch_;
    task.park_state_.store(RankTask::kRunning,
                           std::memory_order_relaxed);
    // The resumed task inherits this worker, keeping its queue
    // affinity where it last ran.
    task.home_worker_ = worker;

    obs::setThreadRank(task.rank());
    obs::RankCounters& counters = obs::RankCounters::global();
    if (stolen)
        counters.addSmSteal();
    if (task.resuming_) {
        task.resuming_ = false;
        counters.addSmResume();
        if (batch->fault != nullptr)
            batch->fault->noteWaitEnd();
        // Exact parked-time attribution: a parked task occupies no
        // thread, so the sampler can't see it — the resume edge
        // measures the episode instead.
        if (task.park_begin_ns_ != 0) {
            const std::uint64_t now = steadyNowNs();
            if (now > task.park_begin_ns_)
                obs::Profiler::global().addParkedNs(
                    task.rank(), now - task.park_begin_ns_);
            task.park_begin_ns_ = 0;
        }
    }

    StepContext ctx(*this, task);
    const StepStatus status = stepTask(task, ctx);
    obs::setThreadRank(-1);

    switch (status) {
      case StepStatus::kDone:
        return;
      case StepStatus::kContinue:
        enqueue(task);
        return;
      case StepStatus::kParked: {
        int expected = RankTask::kParking;
        if (task.park_state_.compare_exchange_strong(
                expected, RankTask::kParked,
                std::memory_order_acq_rel)) {
            // Parked for real; a poster (or the abort sweep) owns the
            // resume now.
            return;
        }
        // The waker beat our publication (state is kWoken): it left
        // the requeue to us.
        parked_now_.fetch_sub(1, std::memory_order_relaxed);
        enqueue(task);
        return;
      }
    }
}

void
StateMachineEngine::finishTask(RankTask& task, std::exception_ptr error)
{
    Batch* batch = task.batch_;
    std::lock_guard<std::mutex> lock(batch->mutex);
    if (error && !batch->error)
        batch->error = error;
    if (--batch->remaining == 0)
        batch->cv.notify_all();
}

void
StateMachineEngine::run(std::vector<std::unique_ptr<RankTask>> tasks,
                        CommFaultContext* fault,
                        Clock::time_point deadline,
                        const std::function<void()>& on_deadline)
{
    if (tasks.empty())
        return;

    Batch batch;
    batch.fault = fault;
    batch.tasks = std::move(tasks);
    batch.remaining = batch.tasks.size();

    const int worker_count = workerCount();
    int next_worker = 0;
    for (const std::unique_ptr<RankTask>& task : batch.tasks) {
        task->engine_ = this;
        task->batch_ = &batch;
        task->park_state_.store(RankTask::kRunning,
                                std::memory_order_relaxed);
        task->resuming_ = false;
        task->wait_published_ = false;
        task->trace_track_ = 0;
        if (placement_ == Placement::kRankPinned) {
            CCUBE_CHECK(task->rank() >= 0 && task->rank() < worker_count,
                        "rank " << task->rank() << " has no pinned worker");
            task->home_worker_ = task->rank();
            continue;
        }
        // Initial placement: round-robin over the pool; after that a
        // task sticks to the worker it last ran on (minus steals).
        task->home_worker_ = next_worker;
        next_worker = (next_worker + 1) % worker_count;
    }
    for (const std::unique_ptr<RankTask>& task : batch.tasks)
        enqueue(*task);

    bool armed = deadline != kNoDeadline && on_deadline;
    std::unique_lock<std::mutex> lock(batch.mutex);
    while (batch.remaining > 0) {
        batch.cv.wait_for(lock, std::chrono::milliseconds(1));
        if (armed && batch.remaining > 0 && Clock::now() >= deadline) {
            // The watchdog: the deadline passed with tasks still
            // running. The action (the Communicator's abort) walks the
            // wait-for graph before it trips the epoch, so it runs
            // ahead of this wakeup's abort check and sweep.
            armed = false;
            lock.unlock();
            on_deadline();
            lock.lock();
        }
        if (fault != nullptr && fault->abortState().aborted()) {
            // A deadline or manual abort tripped the epoch: wake the
            // batch's parked tasks so their next step unwinds with
            // AbortedWait instead of waiting for a post that will
            // never come.
            lock.unlock();
            sweepAborted(batch);
            lock.lock();
        }
    }
    if (batch.error)
        std::rethrow_exception(batch.error);
}

void
StepContext::beginOp(Mailbox& box, Mailbox::OpKind kind)
{
    // The task's previous op completed before this one began.
    StateMachineEngine::endStall(task_);
    box.noteOpBegin(kind);
    began_op_ = true;
}

StepStatus
StepContext::parkOnArrival(Mailbox& box)
{
    engine_.beginStall(task_, /*slot_full=*/false);
    // Waiting on a chunk arrival = waiting on the producer rank.
    return parkOn(box.arrivalSemaphore(), box.traceLabel().c_str(),
                  box.flowId(), box.srcRank());
}

StepStatus
StepContext::parkOnFreeSlot(Mailbox& box)
{
    engine_.beginStall(task_, /*slot_full=*/true);
    // Waiting on a free receive buffer = waiting on the consumer.
    return parkOn(box.freeSlotSemaphore(), box.traceLabel().c_str(),
                  box.flowId(), box.dstRank());
}

StepStatus
StepContext::parkOn(BoundedSemaphore& sem, const char* label, int flow,
                    int peer)
{
    if (engine_.placement_ ==
        StateMachineEngine::Placement::kRankPinned) {
        // A pinned worker polls instead of parking. It publishes this
        // wait site (publishWait) only if the whole rank stays blocked,
        // so a deadline overrun still blames this rank here.
        task_.wait_label_ = label;
        task_.wait_flow_ = flow;
        task_.wait_peer_ = peer;
        return retryLater();
    }

    // Small-message fast path: while the pool has nothing else to run,
    // a bounded spin beats the park/resume round trip (PR 2 measured
    // the pure-spin protocol at a few microseconds per chunk). Under
    // load — more runnable tasks than workers — park immediately and
    // let the queue drain.
    if (engine_.runnableNow() <= engine_.workerCount()) {
        util::SpinWait spin;
        while (!spin.shouldPark()) {
            spin.once([]() { abortPoll(); });
            if (sem.value() > 0)
                return StepStatus::kContinue;
        }
    }

    CommFaultContext* fault = CommFaultContext::current();
    if (fault != nullptr)
        fault->noteWaitBegin(label, flow, peer);
    task_.park_state_.store(RankTask::kParking,
                            std::memory_order_relaxed);
    task_.parked_sem_ = &sem;
    task_.park_begin_ns_ = steadyNowNs();
    if (!sem.parkOnWait(task_)) {
        // The condition turned true between the failed try* and the
        // registration recheck: abandon the park and retry the op.
        task_.park_state_.store(RankTask::kRunning,
                                std::memory_order_relaxed);
        task_.park_begin_ns_ = 0;
        if (fault != nullptr)
            fault->noteWaitEnd();
        return StepStatus::kContinue;
    }
    // Registered. The wait-site label stays published while parked so
    // a deadline overrun blames this rank at this mailbox (the resume
    // path clears it). The worker publishes kParked on return.
    task_.resuming_ = true;
    obs::RankCounters::global().addSmPark();
    engine_.parked_now_.fetch_add(1, std::memory_order_relaxed);
    return StepStatus::kParked;
}

} // namespace ccl
} // namespace ccube
