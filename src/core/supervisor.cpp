#include "core/supervisor.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "ccl/program_task.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace core {

/** Seed of the backoff jitter stream (deterministic per supervisor). */
constexpr std::uint64_t kJitterSeed = 0xC0FFEEull;

ResilienceSupervisor::ResilienceSupervisor(ccl::Communicator& comm,
                                           const topo::Graph& graph,
                                           SupervisorOptions options)
    : comm_(comm), graph_(graph), options_(std::move(options)),
      health_(graph_.channelCount(), options_.probation_runs),
      jitter_(kJitterSeed)
{
    CCUBE_CHECK(comm_.numRanks() == graph_.nodeCount(),
                "communicator/topology size mismatch ("
                    << comm_.numRanks() << " ranks vs "
                    << graph_.nodeCount() << " nodes)");
    CCUBE_CHECK(options_.max_retries >= 0, "negative retry budget");
    // Initial plan over the healthy graph (kCCube when it embeds);
    // planning is not an observable recovery, so the counters reset.
    replanNow();
    stats_ = SupervisorStats{};
}

void
ResilienceSupervisor::noteChannelFail(int channel_id)
{
    std::lock_guard<std::mutex> guard(events_mutex_);
    health_.noteFail(channel_id);
    topology_dirty_ = true;
}

void
ResilienceSupervisor::noteChannelRestore(int channel_id)
{
    std::lock_guard<std::mutex> guard(events_mutex_);
    health_.noteRestore(channel_id);
    restore_pending_ = true;
}

void
ResilienceSupervisor::noteChannelDegrade(int channel_id, double factor)
{
    std::lock_guard<std::mutex> guard(events_mutex_);
    // Scoring only: a degraded-but-alive link keeps carrying traffic
    // (dropping it would trade reduced bandwidth for a worse rung).
    health_.noteDegrade(channel_id, factor);
}

bool
ResilienceSupervisor::replanNow()
{
    {
        std::lock_guard<std::mutex> guard(events_mutex_);
        plan_excluded_ = health_.excludedChannels();
        topology_dirty_ = false;
        restore_pending_ = false;
    }
    const RecoveryKind previous = plan_.kind;
    plan_ = recoverSchedule(graph_, plan_excluded_, options_.recovery);
    ++stats_.replans;
    if (plan_.kind == previous)
        return false;
    // The ladder enum orders best (kCCube = 0) to worst (kNone).
    if (static_cast<int>(plan_.kind) < static_cast<int>(previous))
        ++stats_.promotions;
    else
        ++stats_.demotions;
    util::logInfo("core",
                  std::string("supervisor re-planned: ") +
                      recoveryKindName(previous) + " -> " +
                      recoveryKindName(plan_.kind) + " (excluding " +
                      std::to_string(plan_excluded_.size()) +
                      " channels)");
    return true;
}

void
ResilienceSupervisor::armCheckpoint(const ccl::RankBuffers& buffers)
{
    if (plan_.kind == RecoveryKind::kNone)
        checkpoint_.reset();
    else
        checkpoint_.begin(buffers, plan_.program);
}

void
ResilienceSupervisor::traceRung(int attempt) const
{
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (!recorder.enabled())
        return;
    obs::TraceEvent event;
    event.name = "supervisor.rung";
    event.cat = "core.supervisor";
    event.phase = 'i';
    event.pid = 0;
    event.tid = 0;
    event.ts_us = recorder.wallNowUs();
    event.args.emplace_back("rung",
                            static_cast<double>(plan_.kind));
    event.args.emplace_back("attempt", static_cast<double>(attempt));
    event.args.emplace_back(
        "excluded", static_cast<double>(plan_excluded_.size()));
    recorder.record(std::move(event));
}

double
ResilienceSupervisor::backoffDelay(int retry)
{
    double delay = options_.backoff_base_s;
    for (int i = 1; i < retry; ++i)
        delay *= 2.0;
    delay = std::min(delay, options_.backoff_max_s);
    // Deterministic jitter decorrelates retry storms across
    // supervisors without sacrificing reproducibility.
    return delay + jitter_.uniform(0.0, options_.backoff_base_s);
}

SupervisorReport
ResilienceSupervisor::allReduce(ccl::RankBuffers& buffers)
{
    CCUBE_CHECK(static_cast<int>(buffers.size()) == comm_.numRanks(),
                "one buffer per rank required");

    SupervisorReport report;
    ++stats_.collectives;

    // Consume events fed since the previous call: fail events force a
    // re-plan before launching anything; a past-probation restored
    // link lets the plan climb back up the ladder.
    bool need_replan = false;
    {
        std::lock_guard<std::mutex> guard(events_mutex_);
        need_replan =
            topology_dirty_ || health_.anyReadmittable(plan_excluded_);
    }
    if (need_replan) {
        replanNow();
        ++report.replans;
    }

    armCheckpoint(buffers);

    using Clock = std::chrono::steady_clock;
    Clock::time_point first_error{};
    bool failed_once = false;

    for (int attempt = 1; attempt <= options_.max_retries + 1;
         ++attempt) {
        report.attempts = attempt;
        if (plan_.kind == RecoveryKind::kNone) {
            report.error =
                "recovery ladder exhausted: surviving topology cannot "
                "route a collective";
            break;
        }
        traceRung(attempt);
        sched::Program attempt_program = plan_.program;
        attempt_program.skip = checkpoint_.mask();
        const int resumed = attempt_program.skip.doneCount();
        try {
            ccl::runProgram(comm_, buffers, std::move(attempt_program),
                            options_.proto, checkpoint_.observer());
            report.completed = true;
            report.chunks_resumed = resumed;
            stats_.chunks_resumed +=
                static_cast<std::uint64_t>(resumed);
            break;
        } catch (const ccl::CollectiveError& error) {
            if (!failed_once) {
                failed_once = true;
                first_error = Clock::now();
            }
            report.error = error.what();
            comm_.clearAbort();
            if (attempt > options_.max_retries)
                break; // budget exhausted
            ++stats_.retries;

            // Transient vs persistent: a fail event that arrived since
            // the plan was built means the abort hit a genuinely dead
            // channel — descend the ladder. No pending event means a
            // stall/delay (the stall-chain terminus without a matching
            // fabric event): same topology, backed-off retry.
            bool persistent = false;
            {
                std::lock_guard<std::mutex> guard(events_mutex_);
                persistent = topology_dirty_;
            }
            if (persistent) {
                replanNow();
                ++report.replans;
                // A rung/embedding change invalidates the chunk
                // geometry: restore ALL original inputs and restart
                // the checkpoint from the new program (resuming a
                // different program would double-count finished
                // chunks).
                checkpoint_.restoreAll(buffers);
                armCheckpoint(buffers);
            } else {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        backoffDelay(attempt)));
                // Same geometry: void the aborted run's partial
                // records and rewrite partially-summed slices, then
                // retry with the committed chunks masked out.
                checkpoint_.rearm();
                checkpoint_.restoreIncomplete(buffers);
            }
        }
    }

    report.rung = plan_.kind;
    if (report.completed) {
        ++stats_.completions;
        {
            std::lock_guard<std::mutex> guard(events_mutex_);
            health_.noteRunSuccess();
        }
        if (failed_once) {
            report.mttr_s = std::chrono::duration<double>(
                                Clock::now() - first_error)
                                .count();
            obs::Monitor& monitor = obs::Monitor::global();
            if (monitor.enabled())
                monitor.noteRecovery(report.mttr_s,
                                     report.attempts - 1);
        }
    } else {
        ++stats_.failures;
        // Contract: a failed supervised collective never leaks partial
        // sums — callers see their original inputs (an unroutable plan
        // ran nothing since the last restore).
        if (checkpoint_.active())
            checkpoint_.restoreAll(buffers);
    }
    checkpoint_.reset();
    return report;
}

} // namespace core
} // namespace ccube
