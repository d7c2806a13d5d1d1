#include "sim/resource.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ccube {
namespace sim {

FifoResource::FifoResource(Simulation& simulation, std::string name)
    : sim_(simulation), name_(std::move(name)),
      recorder_(obs::TraceRecorder::global()),
      registry_(obs::MetricRegistry::global()),
      monitor_(obs::Monitor::global())
{
}

void
FifoResource::request(Time hold, DoneFn done, double payload)
{
    CCUBE_CHECK(hold >= 0.0, "negative hold on " << name_);
    if (!busy_) {
        Pending pending{std::move(done), hold, payload, sim_.now()};
        grant(pending);
        return;
    }
    // Filled in place: a waiting request moves its callback once in and
    // once out (at its grant).
    Pending& slot = enqueue();
    slot.done = std::move(done);
    slot.hold = hold;
    slot.payload = payload;
    slot.requested_at = sim_.now();
}

void
FifoResource::setTraceIdentity(int pid, int tid)
{
    trace_pid_ = pid;
    trace_tid_ = tid;
}

void
FifoResource::grant(Pending& pending)
{
    CCUBE_CHECK(!busy_, "grant while busy on " << name_);
    busy_ = true;
    ++grants_;
    const Time duration = pending.hold;
    busy_time_ += duration;
    const bool want_metrics =
        recorder_.enabled() || registry_.enabled();
    if (want_metrics || monitor_.enabled()) {
        // The window accounting feeds the monitor's busy-fraction
        // gauges; the heavier per-grant accounting (payload totals,
        // queue-wait histogram, span) is only for the report paths, so
        // live monitoring alone stays cheap. The previous grant ended
        // by now (unit capacity): its share of the window is final.
        if (last_end_ > window_start_)
            window_busy_ += last_end_ - std::max(last_start_, window_start_);
        last_start_ = sim_.now();
        last_end_ = sim_.now() + duration;
        if (want_metrics) {
            total_payload_ += pending.payload;
            const Time queue_wait = sim_.now() - pending.requested_at;
            queue_wait_.add(queue_wait);
            if (trace_pid_ >= 0 && recorder_.enabled()) {
                const double offset = recorder_.simOffsetUs();
                recorder_.completeEvent(
                    name_, "simnet.channel", trace_pid_, trace_tid_,
                    offset + sim_.now() * 1e6, duration * 1e6,
                    {{"queue_wait_us", queue_wait * 1e6},
                     {"bytes", pending.payload}});
            }
        }
    }

    // The release event captures only `this`: the completion callback
    // is stashed in active_done_ (moved out before release() so a
    // back-to-back grant can install its own), keeping the scheduled
    // lambda within EventFn's inline buffer — no allocation per grant.
    active_done_ = std::move(pending.done);
    sim_.after(duration, [this]() {
        DoneFn done = std::move(active_done_);
        release();
        if (done)
            done();
    });
}

Time
FifoResource::takeWindowBusy(Time until)
{
    // The latest grant adds its share up to @p until; one that
    // straddles @p until stays open for the next window to finish.
    Time busy = window_busy_;
    if (last_end_ > window_start_ && last_start_ < until)
        busy += std::min(last_end_, until) -
                std::max(last_start_, window_start_);
    window_busy_ = 0.0;
    window_start_ = until;
    return busy;
}

void
FifoResource::release()
{
    CCUBE_CHECK(busy_, "release while idle on " << name_);
    busy_ = false;
    if (waiting_count_ > 0) {
        grant(wait_head_->slots[wait_begin_]);
        dequeue();
    }
}

FifoResource::Pending&
FifoResource::enqueue()
{
    if (wait_tail_ == nullptr || wait_end_ == WaitBlock::kSlots) {
        std::unique_ptr<WaitBlock> block = std::move(wait_spare_);
        if (!block)
            block = std::make_unique<WaitBlock>();
        WaitBlock* fresh = block.get();
        if (wait_tail_ == nullptr)
            wait_head_ = std::move(block);
        else
            wait_tail_->next = std::move(block);
        wait_tail_ = fresh;
        wait_end_ = 0;
    }
    ++waiting_count_;
    return wait_tail_->slots[wait_end_++];
}

void
FifoResource::dequeue()
{
    ++wait_begin_;
    if (--waiting_count_ == 0) {
        // Drained: the head is the tail; rewind it, drop the spare.
        wait_begin_ = 0;
        wait_end_ = 0;
        wait_spare_.reset();
    } else if (wait_begin_ == WaitBlock::kSlots) {
        std::unique_ptr<WaitBlock> spent = std::move(wait_head_);
        wait_head_ = std::move(spent->next);
        wait_begin_ = 0;
        wait_spare_ = std::move(spent);
    }
}

} // namespace sim
} // namespace ccube
