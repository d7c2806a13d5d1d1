#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ostream>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"

namespace ccube {
namespace obs {

namespace {
/** Rank slots per phase: RankCounters::slotOf() indexes them. */
constexpr int kRankSlots = RankCounters::kMaxRanks + 1;
} // namespace

const char* profPhaseName(ProfPhase phase)
{
    switch (phase) {
    case ProfPhase::kIdle:
        return "idle";
    case ProfPhase::kStep:
        return "step";
    case ProfPhase::kMailboxPost:
        return "mailbox_post";
    case ProfPhase::kMailboxWait:
        return "mailbox_wait";
    case ProfPhase::kSteal:
        return "steal";
    case ProfPhase::kParked:
        return "parked";
    case ProfPhase::kLLSpin:
        return "ll_spin";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

Profiler& Profiler::global()
{
    static Profiler instance;
    return instance;
}

Profiler::~Profiler()
{
    stop();
}

// Packed slot layout: high 32 bits = phase + 1, low 32 bits = the
// rank's RankCounters::slotOf() slot. Zero means "nothing published",
// which is also what restore(0) writes, so an empty previous-state
// round-trips.
std::uint64_t Profiler::pack(ProfPhase phase, int rank)
{
    const std::uint64_t p = static_cast<std::uint64_t>(
        static_cast<int>(phase) + 1);
    return (p << 32) |
           static_cast<std::uint64_t>(RankCounters::slotOf(rank));
}

int Profiler::threadSlot()
{
    // Slot indices are assigned once per thread for the process
    // lifetime; a thread keeps its slot across captures.
    thread_local int slot = -2;
    if (slot == -2) {
        const int next =
            slots_used_.fetch_add(1, std::memory_order_relaxed);
        slot = next < kMaxThreads ? next : -1;
    }
    return slot;
}

std::uint64_t Profiler::publish(ProfPhase phase, int rank)
{
    if (!enabled()) {
        return 0;
    }
    const int slot = threadSlot();
    if (slot < 0) {
        return 0;
    }
    return thread_slots_[slot].state.exchange(
        pack(phase, rank), std::memory_order_relaxed);
}

void Profiler::restore(std::uint64_t packed)
{
    const int slot = threadSlot();
    if (slot < 0) {
        return;
    }
    thread_slots_[slot].state.store(packed, std::memory_order_relaxed);
}

void Profiler::addParkedNs(int rank, std::uint64_t ns)
{
    parked_ns_[RankCounters::slotOf(rank)].ns.fetch_add(
        ns, std::memory_order_relaxed);
}

std::uint64_t Profiler::parkedNs(int rank) const
{
    return parked_ns_[RankCounters::slotOf(rank)].ns.load(
        std::memory_order_relaxed);
}

std::uint64_t Profiler::totalParkedNs() const
{
    std::uint64_t total = 0;
    for (const ParkSlot& slot : parked_ns_) {
        total += slot.ns.load(std::memory_order_relaxed);
    }
    return total;
}

void Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.assign(static_cast<std::size_t>(kProfPhaseCount) * kRankSlots,
                   0);
    for (ParkSlot& slot : parked_ns_) {
        slot.ns.store(0, std::memory_order_relaxed);
    }
    ticks_.store(0, std::memory_order_relaxed);
}

void Profiler::start(double hz)
{
    reset();
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_) {
        return;
    }
    hz_ = hz > 0.0 ? hz : kDefaultHz;
    running_ = true;
    enabled_.store(true, std::memory_order_release);
    sampler_ = std::thread([this] { samplerLoop(); });

    monitor_source_ = Monitor::global().addSource(
        [this](double,
               std::vector<std::pair<std::string, double>>& values) {
            values.emplace_back(
                "ccl.prof.ticks", static_cast<double>(ticks()));
            values.emplace_back(
                "ccl.prof.threads",
                static_cast<double>(std::min(
                    slots_used_.load(std::memory_order_relaxed),
                    kMaxThreads)));
            values.emplace_back(
                "ccl.prof.parked_ns",
                static_cast<double>(totalParkedNs()));
        });
}

void Profiler::stop()
{
    std::thread sampler;
    Monitor::SourceHandle source; // removed after the join below
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_) {
            return;
        }
        running_ = false;
        enabled_.store(false, std::memory_order_release);
        sampler = std::move(sampler_);
        source = std::move(monitor_source_);
    }
    if (sampler.joinable()) {
        sampler.join();
    }
}

void Profiler::samplerLoop()
{
    const auto period = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / hz_));
    while (enabled_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(period);
        const int used = std::min(
            slots_used_.load(std::memory_order_relaxed), kMaxThreads);
        std::lock_guard<std::mutex> lock(mutex_);
        for (int i = 0; i < used; ++i) {
            const std::uint64_t packed =
                thread_slots_[i].state.load(std::memory_order_relaxed);
            if (packed == 0) {
                continue;
            }
            const int phase = static_cast<int>(packed >> 32) - 1;
            const int ridx = static_cast<int>(packed & 0xffffffffu);
            if (phase < 0 || phase >= kProfPhaseCount) {
                continue;
            }
            ++counts_[static_cast<std::size_t>(phase) * kRankSlots + ridx];
        }
        ticks_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::uint64_t Profiler::samples(ProfPhase phase) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (counts_.empty()) {
        return 0;
    }
    const std::size_t base =
        static_cast<std::size_t>(static_cast<int>(phase)) * kRankSlots;
    std::uint64_t total = 0;
    for (int r = 0; r < kRankSlots; ++r) {
        total += counts_[base + r];
    }
    return total;
}

std::uint64_t Profiler::samples(ProfPhase phase, int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (counts_.empty()) {
        return 0;
    }
    return counts_[static_cast<std::size_t>(static_cast<int>(phase)) *
                       kRankSlots +
                   RankCounters::slotOf(rank)];
}

void Profiler::writeCollapsed(std::ostream& out) const
{
    // Worker-centric phases (idle, steal) are not rank work; they
    // fold under a shared `worker` frame. Parked time has no thread
    // to sample, so the exact ns feed is converted into sample-period
    // units (ns * hz / 1e9) to share the flamegraph scale.
    std::lock_guard<std::mutex> lock(mutex_);
    if (!counts_.empty()) {
        for (int phase = 0; phase < kProfPhaseCount; ++phase) {
            const ProfPhase p = static_cast<ProfPhase>(phase);
            if (p == ProfPhase::kParked) {
                continue; // exact feed below, not sampled counts
            }
            const std::size_t base =
                static_cast<std::size_t>(phase) * kRankSlots;
            for (int ridx = 0; ridx < kRankSlots; ++ridx) {
                const std::uint64_t n = counts_[base + ridx];
                if (n == 0) {
                    continue;
                }
                if (p == ProfPhase::kIdle || p == ProfPhase::kSteal) {
                    out << "ccl;worker;" << profPhaseName(p) << ' '
                        << n << '\n';
                } else if (ridx == 0) {
                    out << "ccl;rank?;" << profPhaseName(p) << ' '
                        << n << '\n';
                } else {
                    out << "ccl;rank" << (ridx - 1) << ';'
                        << profPhaseName(p) << ' ' << n << '\n';
                }
            }
        }
    }
    for (int ridx = 0; ridx < kRankSlots; ++ridx) {
        const std::uint64_t ns =
            parked_ns_[ridx].ns.load(std::memory_order_relaxed);
        if (ns == 0) {
            continue;
        }
        const std::uint64_t units = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(ns) * hz_ / 1e9));
        if (ridx == 0) {
            out << "ccl;rank?;parked " << units << '\n';
        } else {
            out << "ccl;rank" << (ridx - 1) << ";parked " << units
                << '\n';
        }
    }
}

void Profiler::exportTo(MetricRegistry& registry) const
{
    for (int phase = 0; phase < kProfPhaseCount; ++phase) {
        const ProfPhase p = static_cast<ProfPhase>(phase);
        if (p == ProfPhase::kParked) {
            continue;
        }
        const std::uint64_t n = samples(p);
        if (n > 0) {
            registry.addCounter(
                std::string("profiler.samples.") + profPhaseName(p),
                static_cast<double>(n));
        }
    }
    const std::uint64_t parked = totalParkedNs();
    if (parked > 0) {
        registry.addCounter("profiler.parked_ns.total",
                            static_cast<double>(parked));
    }
    registry.addCounter("profiler.ticks",
                        static_cast<double>(ticks()));
}

void Profiler::foldIntoTrace() const
{
    TraceRecorder& recorder = TraceRecorder::global();
    if (!recorder.enabled()) {
        return;
    }
    TraceEvent event;
    event.name = "obs.profiler.summary";
    event.cat = "obs.profiler";
    event.phase = 'i';
    event.pid = pids::core();
    event.tid = 0;
    event.ts_us = recorder.wallNowUs();
    event.args.emplace_back("hz", hz_);
    event.args.emplace_back("ticks", static_cast<double>(ticks()));
    for (int phase = 0; phase < kProfPhaseCount; ++phase) {
        const ProfPhase p = static_cast<ProfPhase>(phase);
        if (p == ProfPhase::kParked) {
            continue;
        }
        event.args.emplace_back(profPhaseName(p),
                                static_cast<double>(samples(p)));
    }
    event.args.emplace_back("parked_ns",
                            static_cast<double>(totalParkedNs()));
    recorder.record(std::move(event));
}

// ---------------------------------------------------------------------------
// ScopedProfPhase
// ---------------------------------------------------------------------------

ScopedProfPhase::ScopedProfPhase(ProfPhase phase)
    : ScopedProfPhase(phase, threadRank())
{
}

ScopedProfPhase::ScopedProfPhase(ProfPhase phase, int rank)
{
    Profiler& profiler = Profiler::global();
    if (!profiler.enabled()) {
        return;
    }
    previous_ = profiler.publish(phase, rank);
    active_ = true;
}

ScopedProfPhase::~ScopedProfPhase()
{
    if (active_) {
        Profiler::global().restore(previous_);
    }
}

} // namespace obs
} // namespace ccube
