/**
 * @file
 * Self-test of the perf ladder's helpers: the tail-percentile rule, the
 * exact-sum oracle (including on a real AllReduce), the median and the
 * simulated-result digest. Exit status 0 when every check passes.
 * `python3 perfbench/run.py --selftest` runs it together with the
 * name check against BENCHMARK.json and compare.py's own checks.
 */

#include <cstdio>
#include <vector>

#include "ccl/communicator.h"
#include "ladder.h"
#include "topo/dgx1.h"

namespace {

int failures = 0;

void
check(bool ok, const char* what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

void
tailRule()
{
    const perfbench::TailPick p1000 = perfbench::pickTail(ramp(1000));
    check(p1000.percentile == 99.0 && p1000.value == 990.0 &&
              p1000.beyond == 10,
          "tail: n=1000 reports p99 with exactly 10 samples beyond");
    const perfbench::TailPick p999 = perfbench::pickTail(ramp(999));
    check(p999.percentile == 95.0 && p999.beyond >= 10,
          "tail: n=999 has only 9 beyond p99, so reports p95");
    // For every n the pick keeps >= 10 beyond, and the next percentile
    // up the ladder would not.
    const double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    bool rule = true;
    for (std::size_t n = 20; n <= 3000; ++n) {
        const perfbench::TailPick pick = perfbench::pickTail(ramp(n));
        rule = rule && pick.beyond >= 10 &&
               pick.value == static_cast<double>(n - pick.beyond);
        for (double q : ladder) {
            if (q <= pick.percentile)
                break;
            const std::size_t tenths = static_cast<std::size_t>(q * 10 + 0.5);
            const std::size_t rank = (tenths * n + 999) / 1000;
            rule = rule && n - rank < 10;
        }
    }
    check(rule, "tail: n=20..3000 picks the highest percentile with "
                ">= 10 samples beyond");
    const perfbench::TailPick few = perfbench::pickTail(ramp(12));
    check(few.percentile == 50.0 && few.beyond < 10,
          "tail: below 20 samples it falls back to the median");
}

void
exactSum()
{
    perfbench::ExactInputs inputs;
    std::vector<std::vector<float>> buffers(8, std::vector<float>(1000));
    inputs.fill(buffers, 42);
    std::vector<float> sum(1000, 0.0f);
    bool integral = true;
    for (const std::vector<float>& b : buffers)
        for (std::size_t i = 0; i < b.size(); ++i) {
            sum[i] += b[i];
            integral = integral && b[i] == static_cast<int>(b[i]) &&
                       b[i] >= -8 && b[i] <= 8;
        }
    check(integral, "inputs: integer values in [-8, 8]");
    check(inputs.mismatches(buffers) != 0,
          "oracle: rejects buffers that were never reduced");
    for (std::vector<float>& b : buffers)
        b = sum;
    check(inputs.mismatches(buffers) == 0, "oracle: accepts the exact sum");
    buffers[5][321] += 1.0f;
    check(inputs.mismatches(buffers) == 1,
          "oracle: rejects one corrupted element on one rank");
    buffers[5][321] -= 1.0f;
    buffers[2].pop_back();
    check(inputs.mismatches(buffers) != 0,
          "oracle: rejects a buffer of the wrong length");

    std::vector<std::vector<float>> again(8, std::vector<float>(1000));
    perfbench::ExactInputs same;
    same.fill(again, 42);
    inputs.fill(buffers, 42);
    check(again == buffers, "inputs: the same seed gives the same inputs");

    const ccube::topo::Graph dgx1 = ccube::topo::makeDgx1();
    ccube::ccl::Communicator comm(8);
    ccube::ccl::RankBuffers real(8, std::vector<float>(4096));
    inputs.fill(real, 7);
    comm.runAuto(real, dgx1);
    check(inputs.mismatches(real) == 0,
          "oracle: accepts a real runAuto AllReduce at P=8");
}

void
helpers()
{
    check(perfbench::median({3, 1, 2}) == 2.0 &&
              perfbench::median({4, 1, 3, 2}) == 2.5,
          "median: odd and even counts");
    perfbench::Digest a, b;
    a.add(1.5);
    b.add(1.5);
    check(a.hex() == b.hex() && a.hex().size() == 16,
          "digest: same values, same digest");
    b.add(0.0);
    a.add(-0.0);
    check(a.hex() != b.hex(), "digest: sees bit-level differences");
}

} // namespace

int
main()
{
    tailRule();
    exactSum();
    helpers();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}
