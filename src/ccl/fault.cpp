#include "ccl/fault.h"

#include <chrono>
#include <sstream>
#include <thread>

#include "obs/context.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace ccl {

namespace {

thread_local CommFaultContext* t_fault_context = nullptr;

std::string
formatInfo(const CollectiveError::Info& info)
{
    std::ostringstream out;
    out << "collective aborted";
    if (!info.op.empty())
        out << " in " << info.op;
    if (info.failed_rank >= 0)
        out << ": rank " << info.failed_rank;
    if (!info.mailbox.empty())
        out << " blocked on " << info.mailbox;
    if (info.flow >= 0)
        out << " (flow " << info.flow << ")";
    if (info.last_posted_seq >= 0)
        out << ", last posted seq " << info.last_posted_seq;
    if (info.ops_completed >= 0)
        out << ", " << info.ops_completed << " mailbox ops";
    if (info.deadline_s > 0.0)
        out << ", deadline " << info.deadline_s << "s";
    if (!info.reason.empty())
        out << " — " << info.reason;
    if (!info.stall_chain.empty())
        out << "; stall chain: " << info.stall_chain;
    return out.str();
}

} // namespace

CollectiveError::CollectiveError(Info info)
    : std::runtime_error(formatInfo(info)), info_(std::move(info))
{
}

AbortedWait::AbortedWait()
    : std::runtime_error("wait aborted: communicator abort epoch tripped")
{
}

RankKilled::RankKilled(int rank)
    : std::runtime_error("rank " + std::to_string(rank) +
                         " killed by fault injector"),
      rank_(rank)
{
}

bool
AbortState::trip(CollectiveError::Info info)
{
    std::lock_guard<std::mutex> guard(mutex_);
    trip_attempts_.fetch_add(1, std::memory_order_release);
    std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    if ((epoch & 1) != 0)
        return false; // already aborted this generation
    info_ = std::move(info);
    epoch_.store(epoch + 1, std::memory_order_release);
    return true;
}

void
AbortState::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    if ((epoch & 1) != 0)
        epoch_.store(epoch + 1, std::memory_order_release);
}

bool
AbortState::clearIfEpoch(std::uint64_t expected_epoch,
                         std::uint64_t expected_attempts)
{
    std::lock_guard<std::mutex> guard(mutex_);
    const std::uint64_t epoch =
        epoch_.load(std::memory_order_relaxed);
    if (epoch != expected_epoch)
        return false; // a newer generation tripped since the capture
    if (trip_attempts_.load(std::memory_order_relaxed) !=
        expected_attempts)
        return false; // a same-generation trip raced the flush
    if ((epoch & 1) != 0)
        epoch_.store(epoch + 1, std::memory_order_release);
    return true;
}

CollectiveError::Info
AbortState::info() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return info_;
}

void
FaultInjector::arm(const Fault& fault)
{
    CCUBE_CHECK(fault.rank >= 0, "fault rank out of range: " << fault.rank);
    std::lock_guard<std::mutex> guard(mutex_);
    growLocked(fault.rank + 1);
    plan_.push_back(fault);
    fired_.push_back(false);
}

void
FaultInjector::attach(int num_ranks)
{
    std::lock_guard<std::mutex> guard(mutex_);
    growLocked(num_ranks);
    ++attachments_;
}

void
FaultInjector::detach()
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (attachments_ > 0)
        --attachments_;
}

void
FaultInjector::growLocked(int num_ranks)
{
    if (num_ranks <= num_slots_)
        return;
    // onOp()/opsSeen() index the counters without the lock; swapping
    // the array under an attached communicator would free them mid-use.
    CCUBE_CHECK(attachments_ == 0,
                "fault injector attached: op counters cover "
                    << num_slots_ << " ranks, " << num_ranks
                    << " needed");
    auto slots =
        std::make_unique<Slot[]>(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_slots_; ++r)
        slots[r].ops.store(slots_[r].ops.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    slots_ = std::move(slots);
    num_slots_ = num_ranks;
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> guard(mutex_);
    plan_.clear();
    fired_.clear();
    for (int r = 0; r < num_slots_; ++r)
        slots_[r].ops.store(0, std::memory_order_relaxed);
}

std::int64_t
FaultInjector::opsSeen(int rank) const
{
    if (rank < 0 || rank >= num_slots_)
        return 0;
    return slots_[rank].ops.load(std::memory_order_relaxed);
}

bool
FaultInjector::onOp(int rank, Fault* out)
{
    if (rank < 0 || rank >= num_slots_)
        return false;
    const std::int64_t op =
        slots_[rank].ops.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> guard(mutex_);
    for (std::size_t i = 0; i < plan_.size(); ++i) {
        if (fired_[i] || plan_[i].rank != rank || plan_[i].at_op != op)
            continue;
        fired_[i] = true;
        *out = plan_[i];
        return true;
    }
    return false;
}

CommFaultContext::CommFaultContext(int num_ranks)
    : num_ranks_(num_ranks),
      slots_(static_cast<std::size_t>(num_ranks > 0 ? num_ranks : 1)),
      waitfor_(num_ranks)
{
}

void
CommFaultContext::setInjector(FaultInjector* injector)
{
    if (injector != nullptr)
        injector->attach(num_ranks_);
    FaultInjector* previous =
        injector_.exchange(injector, std::memory_order_acq_rel);
    if (previous != nullptr)
        previous->detach();
}

void
CommFaultContext::beginCollective(const char* op)
{
    for (RankSlot& slot : slots_) {
        slot.ops.store(0, std::memory_order_relaxed);
        slot.posted_seq.store(-1, std::memory_order_relaxed);
        slot.wait_label.store(nullptr, std::memory_order_relaxed);
        slot.wait_flow.store(-1, std::memory_order_relaxed);
        slot.dead.store(false, std::memory_order_relaxed);
    }
    waitfor_.reset();
    op_.store(op, std::memory_order_release);
}

void
CommFaultContext::endCollective()
{
    // Progress table and op name are kept for post-mortem reads; the
    // next beginCollective resets them.
}

const char*
CommFaultContext::currentOp() const
{
    const char* op = op_.load(std::memory_order_acquire);
    return op != nullptr ? op : "";
}

CommFaultContext::RankSlot&
CommFaultContext::slotForCurrentThread()
{
    const int rank = obs::threadRank();
    if (rank >= 0 && rank < num_ranks_)
        return slots_[static_cast<std::size_t>(rank)];
    return slots_[0];
}

void
CommFaultContext::onMailboxOp(const std::string& label, int flow)
{
    const int rank = obs::threadRank();
    FaultInjector* injector = injector_.load(std::memory_order_acquire);
    if (injector != nullptr && rank >= 0) {
        FaultInjector::Fault fault;
        if (injector->onOp(rank, &fault)) {
            obs::TraceRecorder& recorder = obs::TraceRecorder::global();
            switch (fault.action) {
            case FaultInjector::Action::kKill:
                markDead(rank);
                if (recorder.enabled())
                    recorder.instantEvent(
                        "fault.kill", "ccl.fault",
                        obs::pids::cclRank(rank), 0,
                        recorder.wallNowUs());
                throw RankKilled(rank);
            case FaultInjector::Action::kStall: {
                markDead(rank);
                noteWaitBegin("<stalled>", flow);
                if (recorder.enabled())
                    recorder.instantEvent(
                        "fault.stall", "ccl.fault",
                        obs::pids::cclRank(rank), 0,
                        recorder.wallNowUs());
                // Wedge until the watchdog trips the abort epoch; the
                // poll throws AbortedWait on our behalf.
                while (true) {
                    abortPoll();
                    std::this_thread::yield();
                }
            }
            case FaultInjector::Action::kDelay:
                if (recorder.enabled())
                    recorder.instantEvent(
                        "fault.delay", "ccl.fault",
                        obs::pids::cclRank(rank), 0,
                        recorder.wallNowUs());
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    fault.delay_s));
                break;
            }
        }
    }
    (void)label;
    slotForCurrentThread().ops.fetch_add(1, std::memory_order_relaxed);
}

void
CommFaultContext::noteWaitBegin(const char* label, int flow, int peer)
{
    RankSlot& slot = slotForCurrentThread();
    slot.wait_flow.store(flow, std::memory_order_relaxed);
    // Release: the watchdog dereferences this pointer (the mailbox's
    // label string) from its own thread, so publishing it must carry
    // the string contents with it.
    slot.wait_label.store(label, std::memory_order_release);
    // The wait-for graph only accepts the acting rank itself —
    // threads with no rank tag would otherwise alias slot 0.
    const int rank = obs::threadRank();
    if (rank >= 0 && rank < num_ranks_)
        waitfor_.noteWait(rank, peer, label, flow);
}

void
CommFaultContext::noteWaitEnd()
{
    RankSlot& slot = slotForCurrentThread();
    slot.wait_label.store(nullptr, std::memory_order_relaxed);
    slot.wait_flow.store(-1, std::memory_order_relaxed);
    const int rank = obs::threadRank();
    if (rank >= 0 && rank < num_ranks_)
        waitfor_.clearWait(rank);
}

void
CommFaultContext::notePosted(std::int64_t seq)
{
    slotForCurrentThread().posted_seq.store(seq,
                                            std::memory_order_relaxed);
}

CollectiveError::Info
CommFaultContext::deadlineInfo(double deadline_s) const
{
    CollectiveError::Info info;
    info.op = currentOp();
    info.deadline_s = deadline_s;

    // Walk the wait-for graph first, while every blocked rank's edge
    // is still registered: this runs inside the watchdog callback
    // before the abort epoch trips and wakes the waiters.
    const obs::WaitForRegistry::Chain chain = waitfor_.longestChain();
    if (!chain.empty()) {
        info.stall_chain = obs::WaitForRegistry::formatChain(chain);
        info.chain_terminus = chain.terminus;
        info.chain_len = static_cast<int>(chain.length());
    }

    // Blame: an injector-marked dead rank wins; otherwise the stall
    // chain's terminus (the rank everyone is transitively waiting
    // on); otherwise the rank that has completed the fewest mailbox
    // operations (lowest rank breaks ties).
    int blamed = -1;
    std::int64_t min_ops = 0;
    bool terminus_blamed = false;
    for (int rank = 0; rank < num_ranks_; ++rank) {
        const RankSlot& slot = slots_[static_cast<std::size_t>(rank)];
        if (slot.dead.load(std::memory_order_relaxed)) {
            blamed = rank;
            break;
        }
        const std::int64_t ops =
            slot.ops.load(std::memory_order_relaxed);
        if (blamed < 0 || ops < min_ops) {
            blamed = rank;
            min_ops = ops;
        }
    }
    if (blamed >= 0 &&
        !slots_[static_cast<std::size_t>(blamed)].dead.load(
            std::memory_order_relaxed) &&
        chain.terminus >= 0 && chain.terminus < num_ranks_ &&
        !chain.links.empty()) {
        blamed = chain.terminus;
        terminus_blamed = true;
    }
    if (blamed >= 0) {
        const RankSlot& slot = slots_[static_cast<std::size_t>(blamed)];
        info.failed_rank = blamed;
        info.ops_completed = slot.ops.load(std::memory_order_relaxed);
        info.last_posted_seq =
            slot.posted_seq.load(std::memory_order_relaxed);
        const char* label =
            slot.wait_label.load(std::memory_order_acquire);
        if (label != nullptr)
            info.mailbox = label;
        info.flow = slot.wait_flow.load(std::memory_order_relaxed);
        if (slot.dead.load(std::memory_order_relaxed))
            info.reason = "rank dead (fault injected)";
        else if (terminus_blamed)
            info.reason =
                "deadline exceeded; wait-for chain terminus blamed";
        else
            info.reason = "deadline exceeded; slowest rank blamed";
    } else {
        info.reason = "deadline exceeded";
    }
    return info;
}

void
CommFaultContext::markDead(int rank)
{
    if (rank >= 0 && rank < num_ranks_) {
        slots_[static_cast<std::size_t>(rank)].dead.store(
            true, std::memory_order_release);
        waitfor_.markDead(rank);
    }
}

CommFaultContext*
CommFaultContext::current()
{
    return t_fault_context;
}

ScopedFaultContext::ScopedFaultContext(CommFaultContext* context)
    : previous_(t_fault_context)
{
    if (context != nullptr)
        t_fault_context = context;
}

ScopedFaultContext::~ScopedFaultContext()
{
    t_fault_context = previous_;
}

void
abortPoll()
{
    CommFaultContext* context = t_fault_context;
    if (context != nullptr && context->abortState().aborted())
        throw AbortedWait();
}

bool
abortPending()
{
    CommFaultContext* context = t_fault_context;
    return context != nullptr && context->abortState().aborted();
}

std::string
formatStallReport(const CollectiveError::Info& info)
{
    std::ostringstream out;
    out << "=== ccl stall report ===\n";
    out << "op:            "
        << (info.op.empty() ? "<unknown>" : info.op) << '\n';
    if (info.deadline_s > 0.0)
        out << "deadline:      " << info.deadline_s << " s\n";
    out << "blamed rank:   " << info.failed_rank << '\n';
    if (!info.mailbox.empty()) {
        out << "wait site:     " << info.mailbox;
        if (info.flow >= 0)
            out << " (flow " << info.flow << ")";
        out << '\n';
    }
    if (info.ops_completed >= 0)
        out << "mailbox ops:   " << info.ops_completed << '\n';
    if (info.last_posted_seq >= 0)
        out << "last post seq: " << info.last_posted_seq << '\n';
    if (!info.reason.empty())
        out << "cause:         " << info.reason << '\n';
    if (!info.stall_chain.empty()) {
        out << "wait-for chain (" << info.chain_len
            << " blocked, terminus r" << info.chain_terminus
            << "):\n  " << info.stall_chain << '\n';
    } else {
        out << "wait-for chain: <none captured>\n";
    }
    return out.str();
}

} // namespace ccl
} // namespace ccube
