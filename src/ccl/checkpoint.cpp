#include "ccl/checkpoint.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace ccube {
namespace ccl {

void
ChunkCheckpoint::begin(const RankBuffers& buffers,
                       const sched::Program& program)
{
    CCUBE_CHECK(!buffers.empty() &&
                    static_cast<int>(buffers.size()) == program.num_ranks,
                "checkpoint needs one buffer per program rank ("
                    << buffers.size() << " buffers, " << program.num_ranks
                    << " ranks)");
    for (const std::vector<float>& buffer : buffers)
        CCUBE_CHECK(buffer.size() == buffers[0].size(),
                    "checkpoint buffers must be equally sized");
    num_ranks_ = program.num_ranks;
    geometry_ = program.geometry(buffers[0].size());
    snapshot_ = buffers;
    const int chunks = numChunks();
    CCUBE_CHECK(chunks > 0, "checkpoint needs at least one chunk");
    counts_ = std::make_unique<std::atomic<int>[]>(
        static_cast<std::size_t>(chunks));
    done_ = std::make_unique<std::atomic<std::uint8_t>[]>(
        static_cast<std::size_t>(chunks));
    for (int c = 0; c < chunks; ++c) {
        counts_[static_cast<std::size_t>(c)].store(
            0, std::memory_order_relaxed);
        done_[static_cast<std::size_t>(c)].store(
            0, std::memory_order_relaxed);
    }
}

AllReduceTrace::Observer
ChunkCheckpoint::observer(AllReduceTrace::Observer downstream)
{
    CCUBE_CHECK(active(), "checkpoint observer before begin()");
    return [this, downstream = std::move(downstream)](int rank,
                                                      int chunk) {
        if (chunk >= 0 && chunk < numChunks()) {
            const int seen =
                counts_[static_cast<std::size_t>(chunk)].fetch_add(
                    1, std::memory_order_acq_rel) +
                1;
            // Commit once every rank recorded the chunk: each rank's
            // slice then holds the final value (ranks record a chunk
            // at most once per run and never write a slice after
            // recording it).
            if (seen == num_ranks_)
                done_[static_cast<std::size_t>(chunk)].store(
                    1, std::memory_order_release);
        }
        if (downstream)
            downstream(rank, chunk);
    };
}

bool
ChunkCheckpoint::done(int chunk) const
{
    if (!active() || chunk < 0 || chunk >= numChunks())
        return false;
    return done_[static_cast<std::size_t>(chunk)].load(
               std::memory_order_acquire) != 0;
}

int
ChunkCheckpoint::doneCount() const
{
    if (!active())
        return 0;
    int count = 0;
    for (int c = 0; c < numChunks(); ++c)
        count += done(c) ? 1 : 0;
    return count;
}

bool
ChunkCheckpoint::complete() const
{
    return active() && doneCount() == numChunks();
}

SkipMask
ChunkCheckpoint::mask() const
{
    if (!active())
        return SkipMask{};
    std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(numChunks()), 0);
    for (int c = 0; c < numChunks(); ++c)
        bits[static_cast<std::size_t>(c)] = done(c) ? 1 : 0;
    return SkipMask(std::move(bits));
}

void
ChunkCheckpoint::restoreIncomplete(RankBuffers& buffers) const
{
    CCUBE_CHECK(active(), "restore before begin()");
    CCUBE_CHECK(static_cast<int>(buffers.size()) == num_ranks_,
                "rank count changed under the checkpoint");
    for (int c = 0; c < numChunks(); ++c) {
        if (done(c))
            continue;
        const sched::ChunkRange<std::size_t>& range =
            geometry_[static_cast<std::size_t>(c)];
        for (int r = 0; r < num_ranks_; ++r) {
            const std::vector<float>& src =
                snapshot_[static_cast<std::size_t>(r)];
            std::vector<float>& dst =
                buffers[static_cast<std::size_t>(r)];
            std::copy(src.begin() + static_cast<std::ptrdiff_t>(
                                        range.begin),
                      src.begin() +
                          static_cast<std::ptrdiff_t>(range.end),
                      dst.begin() +
                          static_cast<std::ptrdiff_t>(range.begin));
        }
    }
}

void
ChunkCheckpoint::restoreAll(RankBuffers& buffers) const
{
    CCUBE_CHECK(active(), "restore before begin()");
    CCUBE_CHECK(static_cast<int>(buffers.size()) == num_ranks_,
                "rank count changed under the checkpoint");
    for (int r = 0; r < num_ranks_; ++r)
        buffers[static_cast<std::size_t>(r)] =
            snapshot_[static_cast<std::size_t>(r)];
}

void
ChunkCheckpoint::rearm()
{
    if (!active())
        return;
    for (int c = 0; c < numChunks(); ++c) {
        if (!done(c))
            counts_[static_cast<std::size_t>(c)].store(
                0, std::memory_order_relaxed);
    }
}

void
ChunkCheckpoint::reset()
{
    num_ranks_ = 0;
    geometry_.clear();
    snapshot_.clear();
    counts_.reset();
    done_.reset();
}

} // namespace ccl
} // namespace ccube
