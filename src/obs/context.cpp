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
RankCounters::postStalls(int rank) const
{
    return slot(rank).post_stalls.load(std::memory_order_relaxed);
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
RankCounters::llSpins(int rank) const
{
    return slot(rank).ll_spins.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::llSpinNs(int rank) const
{
    return slot(rank).ll_spin_ns.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::smParks(int rank) const
{
    return slot(rank).sm_parks.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::smResumes(int rank) const
{
    return slot(rank).sm_resumes.load(std::memory_order_relaxed);
}

std::uint64_t
RankCounters::smSteals(int rank) const
{
    return slot(rank).sm_steals.load(std::memory_order_relaxed);
}

namespace {

template <typename Member>
std::uint64_t
sumSlots(const RankCounters& counters, Member member)
{
    const int bound = RankCounters::rankBound();
    std::uint64_t total = 0;
    for (int rank = -1; rank < bound; ++rank)
        total += (counters.*member)(rank);
    return total;
}

} // namespace

std::uint64_t
RankCounters::totalCasRetries() const
{
    return sumSlots(*this, &RankCounters::casRetries);
}

std::uint64_t
RankCounters::totalSlotFullStalls() const
{
    return sumSlots(*this, &RankCounters::slotFullStalls);
}

std::uint64_t
RankCounters::totalMailboxSends() const
{
    return sumSlots(*this, &RankCounters::mailboxSends);
}

std::uint64_t
RankCounters::totalMailboxRecvs() const
{
    return sumSlots(*this, &RankCounters::mailboxRecvs);
}

std::uint64_t
RankCounters::totalLLSpins() const
{
    return sumSlots(*this, &RankCounters::llSpins);
}

std::uint64_t
RankCounters::totalLLSpinNs() const
{
    return sumSlots(*this, &RankCounters::llSpinNs);
}

std::uint64_t
RankCounters::totalSmParks() const
{
    return sumSlots(*this, &RankCounters::smParks);
}

std::uint64_t
RankCounters::totalSmResumes() const
{
    return sumSlots(*this, &RankCounters::smResumes);
}

std::uint64_t
RankCounters::totalSmSteals() const
{
    return sumSlots(*this, &RankCounters::smSteals);
}

void
RankCounters::exportTo(MetricRegistry& registry) const
{
    struct Field {
        const char* name;
        std::uint64_t (RankCounters::*read)(int) const;
    };
    static constexpr Field kFields[] = {
        {"cas_retries", &RankCounters::casRetries},
        {"post_stalls", &RankCounters::postStalls},
        {"wait_stalls", &RankCounters::waitStalls},
        {"post_stall_ns", &RankCounters::postStallNs},
        {"wait_stall_ns", &RankCounters::waitStallNs},
        {"slot_full_stalls", &RankCounters::slotFullStalls},
        {"mailbox_sends", &RankCounters::mailboxSends},
        {"mailbox_recvs", &RankCounters::mailboxRecvs},
        {"executor_tasks", &RankCounters::executorTasks},
        {"executor_parks", &RankCounters::executorParks},
        {"executor_unparks", &RankCounters::executorUnparks},
        {"sm_parks", &RankCounters::smParks},
        {"sm_resumes", &RankCounters::smResumes},
        {"sm_steals", &RankCounters::smSteals},
        {"ll_spins", &RankCounters::llSpins},
        {"ll_spin_ns", &RankCounters::llSpinNs},
    };
    const int bound = rankBound();
    for (const Field& field : kFields) {
        std::uint64_t total = 0;
        for (int rank = -1; rank < bound; ++rank) {
            const std::uint64_t value = (this->*field.read)(rank);
            total += value;
            if (value == 0)
                continue;
            const std::string label =
                rank >= 0 ? "rank" + std::to_string(rank) : "unknown";
            registry.addCounter(
                "ccl." + label + "." + field.name,
                static_cast<double>(value));
        }
        registry.addCounter("ccl.total." + std::string(field.name),
                            static_cast<double>(total));
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
