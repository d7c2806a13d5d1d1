#include "ccl/allreduce.h"

#include <utility>

#include "util/logging.h"

namespace ccube {
namespace ccl {

AllReduceTrace::AllReduceTrace(int num_ranks, Observer observer)
    : per_rank_(static_cast<std::size_t>(num_ranks)),
      observer_(std::move(observer))
{
    CCUBE_CHECK(num_ranks >= 1, "trace needs at least one rank");
}

void
AllReduceTrace::record(int rank, int chunk)
{
    CCUBE_CHECK(rank >= 0 &&
                    rank < static_cast<int>(per_rank_.size()),
                "bad rank " << rank);
    PerRank& entry = per_rank_[static_cast<std::size_t>(rank)];
    {
        SpinLockGuard guard(entry.lock);
        entry.order.push_back(chunk);
    }
    if (observer_)
        observer_(rank, chunk);
}

const std::vector<int>&
AllReduceTrace::order(int rank) const
{
    CCUBE_CHECK(rank >= 0 &&
                    rank < static_cast<int>(per_rank_.size()),
                "bad rank " << rank);
    return per_rank_[static_cast<std::size_t>(rank)].order;
}

bool
AllReduceTrace::inOrder() const
{
    for (const PerRank& entry : per_rank_) {
        for (std::size_t i = 1; i < entry.order.size(); ++i)
            if (entry.order[i] < entry.order[i - 1])
                return false;
    }
    return true;
}

} // namespace ccl
} // namespace ccube
