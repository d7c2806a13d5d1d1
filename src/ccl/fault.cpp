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
    std::lock_guard<std::mutex> guard(mutex_);
    CCUBE_CHECK(fault.rank >= 0 &&
                    (num_ranks_ == 0 || fault.rank < num_ranks_),
                "fault rank out of range: " << fault.rank
                    << " (attached communicator has " << num_ranks_
                    << " ranks)");
    plan_.push_back(fault);
    fired_.push_back(false);
}

void
FaultInjector::attach(int num_ranks)
{
    std::lock_guard<std::mutex> guard(mutex_);
    num_ranks_ = num_ranks;
}

bool
FaultInjector::onOp(int rank, std::int64_t op, Fault* out)
{
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
      slots_(static_cast<std::size_t>(num_ranks > 0 ? num_ranks : 0))
{
}

void
CommFaultContext::setInjector(FaultInjector* injector)
{
    if (injector != nullptr)
        injector->attach(num_ranks_);
    for (RankSlot& slot : slots_)
        slot.ops_seen.store(0, std::memory_order_relaxed);
    FaultInjector* previous =
        injector_.exchange(injector, std::memory_order_acq_rel);
    if (previous != nullptr && previous != injector)
        previous->attach(0);
}

void
CommFaultContext::beginCollective(const char* op)
{
    for (RankSlot& slot : slots_) {
        slot.ops.store(0, std::memory_order_relaxed);
        slot.posted_seq.store(-1, std::memory_order_relaxed);
        slot.wait_label.store(nullptr, std::memory_order_relaxed);
        slot.wait_peer.store(-1, std::memory_order_relaxed);
        slot.wait_flow.store(-1, std::memory_order_relaxed);
        slot.dead.store(false, std::memory_order_relaxed);
    }
    op_.store(op, std::memory_order_release);
}

const char*
CommFaultContext::currentOp() const
{
    const char* op = op_.load(std::memory_order_acquire);
    return op != nullptr ? op : "";
}

CommFaultContext::RankSlot*
CommFaultContext::slotForCurrentThread()
{
    const int rank = obs::threadRank();
    if (rank >= 0 && rank < num_ranks_)
        return &slots_[static_cast<std::size_t>(rank)];
    return nullptr;
}

void
CommFaultContext::onMailboxOp(int flow)
{
    const int rank = obs::threadRank();
    if (rank < 0 || rank >= num_ranks_)
        return;
    RankSlot& slot = slots_[static_cast<std::size_t>(rank)];
    FaultInjector* injector = injector_.load(std::memory_order_acquire);
    FaultInjector::Fault fault;
    if (injector != nullptr &&
        injector->onOp(
            rank, slot.ops_seen.fetch_add(1, std::memory_order_relaxed),
            &fault)) {
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        switch (fault.action) {
        case FaultInjector::Action::kKill:
            markDead(rank);
            if (recorder.enabled())
                recorder.instantEvent("fault.kill", "ccl.fault",
                                      obs::pids::cclRank(rank), 0,
                                      recorder.wallNowUs());
            throw RankKilled(rank);
        case FaultInjector::Action::kStall: {
            markDead(rank);
            noteWaitBegin("<stalled>", flow);
            if (recorder.enabled())
                recorder.instantEvent("fault.stall", "ccl.fault",
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
                recorder.instantEvent("fault.delay", "ccl.fault",
                                      obs::pids::cclRank(rank), 0,
                                      recorder.wallNowUs());
            std::this_thread::sleep_for(
                std::chrono::duration<double>(fault.delay_s));
            break;
        }
    }
    slot.ops.fetch_add(1, std::memory_order_relaxed);
}

void
CommFaultContext::noteWaitBegin(const char* label, int flow, int peer)
{
    RankSlot* slot = slotForCurrentThread();
    if (slot == nullptr)
        return;
    slot->wait_peer.store(peer, std::memory_order_relaxed);
    slot->wait_flow.store(flow, std::memory_order_relaxed);
    // Release: the label doubles as the "this rank is waiting" flag
    // and the watchdog (the collective's caller, in its wait loop)
    // dereferences it (the mailbox's label string) from its own
    // thread, so publishing it must carry the peer/flow pair and the
    // string contents with it.
    slot->wait_label.store(label, std::memory_order_release);
}

void
CommFaultContext::noteWaitEnd()
{
    RankSlot* slot = slotForCurrentThread();
    if (slot == nullptr)
        return;
    slot->wait_label.store(nullptr, std::memory_order_release);
    slot->wait_flow.store(-1, std::memory_order_relaxed);
}

void
CommFaultContext::notePosted(std::int64_t seq)
{
    if (RankSlot* slot = slotForCurrentThread())
        slot->posted_seq.store(seq, std::memory_order_relaxed);
}

CollectiveError::Info
CommFaultContext::deadlineInfo(double deadline_s) const
{
    CollectiveError::Info info;
    info.op = currentOp();
    info.deadline_s = deadline_s;

    // Walk the wait-for graph first, while every blocked rank's edge
    // is still registered: this runs in the engine's wait loop on
    // deadline expiry, before the abort epoch trips and wakes the
    // waiters.
    const WaitChain chain = longestChain();
    if (!chain.empty()) {
        info.stall_chain = formatChain(chain);
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
    if (rank >= 0 && rank < num_ranks_)
        slots_[static_cast<std::size_t>(rank)].dead.store(
            true, std::memory_order_release);
}

std::int64_t
CommFaultContext::opsSeen(int rank) const
{
    if (rank < 0 || rank >= num_ranks_)
        return 0;
    return slots_[static_cast<std::size_t>(rank)].ops_seen.load(
        std::memory_order_relaxed);
}

CommFaultContext::WaitChain
CommFaultContext::chain(int start) const
{
    WaitChain chain;
    std::vector<bool> visited(slots_.size(), false);
    int rank = start;
    while (rank >= 0 && rank < num_ranks_) {
        const RankSlot& slot = slots_[static_cast<std::size_t>(rank)];
        const char* label = slot.wait_label.load(std::memory_order_acquire);
        if (label == nullptr) {
            // Not waiting: the chain terminates here.
            chain.terminus = rank;
            chain.terminus_dead = slot.dead.load(std::memory_order_acquire);
            return chain;
        }
        if (visited[static_cast<std::size_t>(rank)]) {
            chain.terminus = rank;
            chain.cycle = true;
            return chain;
        }
        visited[static_cast<std::size_t>(rank)] = true;
        WaitLink link;
        link.rank = rank;
        link.peer = slot.wait_peer.load(std::memory_order_relaxed);
        link.label = label;
        link.flow = slot.wait_flow.load(std::memory_order_relaxed);
        chain.links.push_back(std::move(link));
        rank = chain.links.back().peer;
    }
    // Fell off the table: expected poster unknown or out of range.
    chain.terminus = -1;
    return chain;
}

CommFaultContext::WaitChain
CommFaultContext::longestChain() const
{
    WaitChain best;
    for (int rank = 0; rank < num_ranks_; ++rank) {
        if (slots_[static_cast<std::size_t>(rank)].wait_label.load(
                std::memory_order_acquire) == nullptr)
            continue;
        WaitChain candidate = chain(rank);
        if (candidate.length() > best.length())
            best = std::move(candidate);
    }
    return best;
}

std::string
CommFaultContext::formatChain(const WaitChain& chain)
{
    if (chain.empty())
        return std::string();
    std::ostringstream out;
    for (std::size_t i = 0; i < chain.links.size(); ++i) {
        if (i > 0)
            out << " <- ";
        out << 'r' << chain.links[i].rank << " parked on "
            << chain.links[i].label;
    }
    if (!chain.links.empty())
        out << " <- ";
    if (chain.cycle)
        out << 'r' << chain.terminus << " (wait cycle)";
    else if (chain.terminus < 0)
        out << "<external>";
    else if (chain.terminus_dead)
        out << 'r' << chain.terminus << " killed";
    else
        out << 'r' << chain.terminus << " running";
    return out.str();
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
