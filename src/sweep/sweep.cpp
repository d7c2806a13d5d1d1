#include "sweep/sweep.h"

#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "obs/capture.h"
#include "util/flags.h"
#include "util/logging.h"

namespace ccube {
namespace sweep {

namespace {

int
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/** Everything one worker needs; shared by all workers of one run(). */
struct PoolState {
    explicit PoolState(std::vector<Task>& all_tasks)
        : tasks(all_tasks)
    {
    }

    std::vector<Task>& tasks;
    std::atomic<std::size_t> next{0};
    /** Capture the tasks fork from; null when capture_obs is off. */
    const obs::Capture* parent = nullptr;
    /** Per-task captures, filled by workers, merged by the caller. */
    std::vector<obs::Capture> captures;
    /** First (by task index) exception thrown by a task. */
    std::vector<std::exception_ptr> errors;
};

void
workerLoop(PoolState& state)
{
    const std::size_t count = state.tasks.size();
    for (;;) {
        const std::size_t index =
            state.next.fetch_add(1, std::memory_order_relaxed);
        if (index >= count)
            return;

        obs::Capture& capture = state.captures[index];
        if (state.parent)
            capture = state.parent->fork();
        obs::ScopedCapture capture_scope(capture);
        try {
            state.tasks[index]();
        } catch (...) {
            state.errors[index] = std::current_exception();
        }
    }
}

} // namespace

Options
Options::fromFlags(const util::Flags& flags)
{
    Options options;
    options.jobs = flags.getInt("jobs", 0);
    return options;
}

int
Options::effectiveJobs(std::size_t task_count) const
{
    int count = jobs > 0 ? jobs : hardwareJobs();
    if (task_count > 0 &&
        static_cast<std::size_t>(count) > task_count)
        count = static_cast<int>(task_count);
    return count < 1 ? 1 : count;
}

void
run(const Options& options, std::vector<Task> tasks)
{
    if (tasks.empty())
        return;

    // The parent capture is whatever is current on the calling thread,
    // so nested sweeps compose (a task running its own sweep merges
    // grandchild captures into its private capture).
    const obs::Capture& parent = obs::Capture::current();

    PoolState state(tasks);
    if (options.capture_obs)
        state.parent = &parent;
    state.captures.resize(tasks.size());
    state.errors.resize(tasks.size());

    const int jobs = options.effectiveJobs(tasks.size());
    if (jobs <= 1) {
        workerLoop(state);
    } else {
        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(jobs));
        for (int w = 0; w < jobs; ++w)
            workers.emplace_back([&state]() { workerLoop(state); });
        for (std::thread& worker : workers)
            worker.join();
    }

    // Deterministic merge: task-index order regardless of completion
    // order, so the combined capture is independent of jobs.
    for (const obs::Capture& capture : state.captures)
        parent.absorb(capture);

    for (const std::exception_ptr& error : state.errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

void
runIndexed(const Options& options, std::size_t count,
           const std::function<void(std::size_t)>& task)
{
    std::vector<Task> tasks;
    tasks.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        tasks.push_back([&task, i]() { task(i); });
    run(options, std::move(tasks));
}

} // namespace sweep
} // namespace ccube
