#ifndef CCUBE_SWEEP_SWEEP_H_
#define CCUBE_SWEEP_SWEEP_H_

/**
 * @file
 * Deterministic parallel sweep runner.
 *
 * Every headline figure is produced by sweeping the single-threaded
 * discrete-event simulator over an algorithm × message-size ×
 * node-count grid; the configurations are independent, so the grid is
 * embarrassingly parallel. sweep::run() executes a vector of tasks on
 * a thread pool while keeping every observable output byte-identical
 * to the serial run:
 *
 *  - each task writes its results into its own pre-assigned slot
 *    (callers index by task, never append from workers);
 *  - each task runs under its own obs::Capture, forked from the
 *    caller's current capture: a private trace recorder, metric
 *    registry and monitor for every sink the caller has enabled,
 *    configured alike. The caller absorbs the task captures in
 *    task-index order, exactly reproducing the sim-epoch and run
 *    numbering of a serial run. A task that runs its own sweep forks
 *    from its task capture, so nested sweeps merge the same way;
 *  - `--jobs=1` takes the same capture/merge path, so job count can
 *    never change the output, only the wall clock.
 *
 * Tasks must not touch shared mutable state (the DES simulations they
 * run are per-task by construction); anything a task wants to report
 * goes into its slot and is printed by the caller afterwards.
 */

#include <cstddef>
#include <functional>
#include <vector>

namespace ccube {

namespace util {
class Flags;
}

namespace sweep {

/** Pool configuration. */
struct Options {
    /** Worker threads; <= 0 selects the hardware concurrency. */
    int jobs = 0;

    /**
     * Give each task a private obs capture merged in task order
     * (only relevant while a sink of the caller's capture is enabled).
     * Turn off for compute-only sweeps that never record, e.g. the
     * embedding-search attempt pool.
     */
    bool capture_obs = true;

    /** Reads `--jobs=N` (default: hardware concurrency). */
    static Options fromFlags(const util::Flags& flags);

    /** Worker count actually used for @p task_count tasks (>= 1). */
    int effectiveJobs(std::size_t task_count) const;
};

/** One unit of sweep work. */
using Task = std::function<void()>;

/**
 * Runs every task exactly once, possibly concurrently, and returns
 * when all have finished. Task exceptions are rethrown (first by task
 * index) after the pool drains.
 */
void run(const Options& options, std::vector<Task> tasks);

/** Convenience: runs task(0) … task(count-1) through run(). */
void runIndexed(const Options& options, std::size_t count,
                const std::function<void(std::size_t)>& task);

} // namespace sweep
} // namespace ccube

#endif // CCUBE_SWEEP_SWEEP_H_
