#include "obs/context.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ccube {
namespace obs {

namespace {

thread_local int t_rank = -1;
thread_local int t_track = 0;

std::atomic<int> g_next_track{1};

/** One past the highest rank setThreadRank() has seen. */
std::atomic<int> g_rank_bound{0};

} // namespace

void
setThreadRank(int rank)
{
    t_rank = rank;
    int bound = g_rank_bound.load(std::memory_order_relaxed);
    while (rank >= bound &&
           !g_rank_bound.compare_exchange_weak(
               bound, rank + 1, std::memory_order_relaxed)) {
    }
}

int
threadRank()
{
    return t_rank;
}

int
threadTrack()
{
    if (t_track == 0)
        t_track = g_next_track.fetch_add(1, std::memory_order_relaxed);
    return t_track;
}

void
labelThread(const char* label)
{
    TraceRecorder& recorder = TraceRecorder::global();
    if (!recorder.enabled())
        return;
    const int rank = threadRank();
    recorder.setThreadName(pids::cclRank(rank), threadTrack(), label);
    recorder.setProcessName(pids::cclRank(rank),
                            rank >= 0
                                ? "ccl rank " + std::to_string(rank)
                                : std::string("ccl (no rank)"));
}

RankCounters&
RankCounters::global()
{
    static RankCounters counters;
    return counters;
}

int
RankCounters::rankBound()
{
    const int bound = g_rank_bound.load(std::memory_order_relaxed);
    return bound < kMaxRanks ? bound : kMaxRanks;
}

RankCounters::Slot&
RankCounters::current()
{
    return slots_[slotOf(t_rank)];
}

const RankCounters::Slot&
RankCounters::slot(int rank) const
{
    return slots_[slotOf(rank)];
}

void
RankCounters::addCasRetries(std::uint64_t n)
{
    current().cas_retries.fetch_add(n, std::memory_order_relaxed);
}

void
RankCounters::addPostStall()
{
    current().post_stalls.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addWaitStall()
{
    current().wait_stalls.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addPostStallNs(std::uint64_t ns)
{
    current().post_stall_ns.fetch_add(ns, std::memory_order_relaxed);
}

void
RankCounters::addWaitStallNs(std::uint64_t ns)
{
    current().wait_stall_ns.fetch_add(ns, std::memory_order_relaxed);
}

void
RankCounters::addSlotFullStall()
{
    current().slot_full_stalls.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addMailboxSend()
{
    current().mailbox_sends.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addMailboxRecv()
{
    current().mailbox_recvs.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addExecutorTask()
{
    current().executor_tasks.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addExecutorPark()
{
    current().executor_parks.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addExecutorUnpark()
{
    current().executor_unparks.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addLLSpin(std::uint64_t ns)
{
    Slot& slot = current();
    slot.ll_spins.fetch_add(1, std::memory_order_relaxed);
    slot.ll_spin_ns.fetch_add(ns, std::memory_order_relaxed);
}

void
RankCounters::addSmPark()
{
    current().sm_parks.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addSmResume()
{
    current().sm_resumes.fetch_add(1, std::memory_order_relaxed);
}

void
RankCounters::addSmSteal()
{
    current().sm_steals.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
RankCounters::casRetries(int rank) const
{
    return slot(rank).cas_retries.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::waitStalls(int rank) const
{
    return slot(rank).wait_stalls.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::postStallNs(int rank) const
{
    return slot(rank).post_stall_ns.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::waitStallNs(int rank) const
{
    return slot(rank).wait_stall_ns.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::slotFullStalls(int rank) const
{
    return slot(rank).slot_full_stalls.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::mailboxSends(int rank) const
{
    return slot(rank).mailbox_sends.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::mailboxRecvs(int rank) const
{
    return slot(rank).mailbox_recvs.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::executorTasks(int rank) const
{
    return slot(rank).executor_tasks.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::executorParks(int rank) const
{
    return slot(rank).executor_parks.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::executorUnparks(int rank) const
{
    return slot(rank).executor_unparks.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::total(Field field) const
{
    const int bound = rankBound();
    std::uint64_t sum = 0;
    for (int rank = -1; rank < bound; ++rank)
        sum += (slot(rank).*field).load(std::memory_order_relaxed);
    return sum;
}

std::uint64_t
RankCounters::totalCasRetries() const
{
    return total(&Slot::cas_retries);
}

std::uint64_t
RankCounters::totalSlotFullStalls() const
{
    return total(&Slot::slot_full_stalls);
}

std::uint64_t
RankCounters::totalMailboxSends() const
{
    return total(&Slot::mailbox_sends);
}

std::uint64_t
RankCounters::totalMailboxRecvs() const
{
    return total(&Slot::mailbox_recvs);
}

std::uint64_t
RankCounters::totalLLSpinNs() const
{
    return total(&Slot::ll_spin_ns);
}

std::uint64_t
RankCounters::totalSmParks() const
{
    return total(&Slot::sm_parks);
}

std::uint64_t
RankCounters::totalSmResumes() const
{
    return total(&Slot::sm_resumes);
}

std::uint64_t
RankCounters::totalSmSteals() const
{
    return total(&Slot::sm_steals);
}

void
RankCounters::exportTo(MetricRegistry& registry) const
{
    struct Named {
        const char* name;
        Field field;
    };
    static constexpr Named kFields[] = {
        {"cas_retries", &Slot::cas_retries},
        {"post_stalls", &Slot::post_stalls},
        {"wait_stalls", &Slot::wait_stalls},
        {"post_stall_ns", &Slot::post_stall_ns},
        {"wait_stall_ns", &Slot::wait_stall_ns},
        {"slot_full_stalls", &Slot::slot_full_stalls},
        {"mailbox_sends", &Slot::mailbox_sends},
        {"mailbox_recvs", &Slot::mailbox_recvs},
        {"executor_tasks", &Slot::executor_tasks},
        {"executor_parks", &Slot::executor_parks},
        {"executor_unparks", &Slot::executor_unparks},
        {"sm_parks", &Slot::sm_parks},
        {"sm_resumes", &Slot::sm_resumes},
        {"sm_steals", &Slot::sm_steals},
        {"ll_spins", &Slot::ll_spins},
        {"ll_spin_ns", &Slot::ll_spin_ns},
    };
    const int bound = rankBound();
    for (const Named& named : kFields) {
        std::uint64_t sum = 0;
        for (int rank = -1; rank < bound; ++rank) {
            const std::uint64_t value =
                (slot(rank).*named.field).load(std::memory_order_relaxed);
            sum += value;
            if (value == 0)
                continue;
            const std::string label =
                rank >= 0 ? "rank" + std::to_string(rank) : "unknown";
            registry.addCounter(
                "ccl." + label + "." + named.name,
                static_cast<double>(value));
        }
        registry.addCounter("ccl.total." + std::string(named.name),
                            static_cast<double>(sum));
    }
}

void
RankCounters::reset()
{
    for (Slot& s : slots_) {
        s.cas_retries.store(0, std::memory_order_relaxed);
        s.post_stalls.store(0, std::memory_order_relaxed);
        s.wait_stalls.store(0, std::memory_order_relaxed);
        s.post_stall_ns.store(0, std::memory_order_relaxed);
        s.wait_stall_ns.store(0, std::memory_order_relaxed);
        s.slot_full_stalls.store(0, std::memory_order_relaxed);
        s.mailbox_sends.store(0, std::memory_order_relaxed);
        s.mailbox_recvs.store(0, std::memory_order_relaxed);
        s.executor_tasks.store(0, std::memory_order_relaxed);
        s.executor_parks.store(0, std::memory_order_relaxed);
        s.executor_unparks.store(0, std::memory_order_relaxed);
        s.ll_spins.store(0, std::memory_order_relaxed);
        s.ll_spin_ns.store(0, std::memory_order_relaxed);
        s.sm_parks.store(0, std::memory_order_relaxed);
        s.sm_resumes.store(0, std::memory_order_relaxed);
        s.sm_steals.store(0, std::memory_order_relaxed);
    }
}

} // namespace obs
} // namespace ccube
