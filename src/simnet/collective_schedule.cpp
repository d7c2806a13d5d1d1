#include "simnet/collective_schedule.h"

#include <algorithm>

#include "util/logging.h"

namespace ccube {
namespace simnet {

double
ScheduleResult::turnaroundTime() const
{
    CCUBE_CHECK(!chunk_ready.empty(), "empty schedule result");
    return *std::min_element(chunk_ready.begin(), chunk_ready.end());
}

double
ScheduleResult::effectiveBandwidth(double bytes) const
{
    CCUBE_CHECK(completion_time > 0.0, "schedule has not run");
    return bytes / completion_time;
}

} // namespace simnet
} // namespace ccube
