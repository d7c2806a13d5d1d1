/**
 * @file
 * Tests for the CLI flag parser, the strict `CCUBE_*` environment
 * knobs, and the new catalog models.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "ccl/communicator.h"
#include "ccl/state_machine.h"
#include "dnn/catalog.h"
#include "obs/monitor.h"
#include "util/flags.h"

namespace ccube {
namespace {

util::Flags
parse(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm)
{
    const auto flags = parse({"--batch=64", "--workload=vgg16"});
    EXPECT_EQ(flags.getInt("batch", 0), 64);
    EXPECT_EQ(flags.get("workload"), "vgg16");
    EXPECT_FALSE(flags.has("missing"));
    EXPECT_EQ(flags.getInt("missing", 7), 7);
}

TEST(Flags, SpaceForm)
{
    const auto flags = parse({"--batch", "32", "--bw", "0.25"});
    EXPECT_EQ(flags.getInt("batch", 0), 32);
    EXPECT_DOUBLE_EQ(flags.getDouble("bw", 1.0), 0.25);
}

TEST(Flags, BareBooleanDoesNotEatNextFlag)
{
    const auto flags = parse({"--verbose", "--batch=8"});
    EXPECT_TRUE(flags.has("verbose"));
    EXPECT_EQ(flags.get("verbose", "unset"), "unset");
    EXPECT_EQ(flags.getInt("batch", 0), 8);
}

TEST(Flags, PositionalArguments)
{
    const auto flags = parse({"resnet50", "--batch=8", "extra"});
    ASSERT_EQ(flags.positional().size(), 2u);
    EXPECT_EQ(flags.positional()[0], "resnet50");
    EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(Flags, NamesListsAllFlags)
{
    const auto flags = parse({"--a=1", "--b", "2", "--c"});
    const auto names = flags.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

TEST(Flags, DiesOnGarbageNumbers)
{
    const auto flags = parse({"--batch=abc"});
    EXPECT_DEATH(flags.getInt("batch", 0), "integer");
}

TEST(Flags, DiesOnEmptyNumbers)
{
    // `--rounds=` must neither read as 0 nor fall back silently.
    const auto flags = parse({"--rounds=", "--bw="});
    EXPECT_DEATH(flags.getInt("rounds", 24), "wants an integer");
    EXPECT_DEATH(flags.getDouble("bw", 1.0), "wants a number");
}

TEST(Flags, DiesOnIntOutOfRange)
{
    // 2^32 + 1 would wrap to 1 through a long -> int cast.
    const auto flags = parse({"--reps=4294967297", "--lo=-2147483649",
                              "--huge=99999999999999999999"});
    EXPECT_DEATH(flags.getInt("reps", 8), "wants an integer");
    EXPECT_DEATH(flags.getInt("lo", 8), "wants an integer");
    EXPECT_DEATH(flags.getInt("huge", 8), "wants an integer");
}

TEST(Flags, AcceptsIntRangeEdges)
{
    const auto flags =
        parse({"--max=2147483647", "--min=-2147483648"});
    EXPECT_EQ(flags.getInt("max", 0), 2147483647);
    EXPECT_EQ(flags.getInt("min", 0), -2147483647 - 1);
}

/** Sets environment variable @p name for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    const char* name_;
};

TEST(SloFlagsDeathTest, BudgetsParseStrictly)
{
    // A unit suffix used to read as 2 ms, garbage as 0 (SLO off).
    EXPECT_DEATH(obs::SloSpec::fromFlags(parse({"--slo-mttr-ms=2s"})),
                 "--slo-mttr-ms wants a number, got '2s'");
    EXPECT_DEATH(obs::SloSpec::fromFlags(parse({"--slo-mttr-ms=abc"})),
                 "--slo-mttr-ms");
    EXPECT_DEATH(
        obs::SloSpec::fromFlags(parse({"--slo-collective-ms=-5"})),
        "--slo-collective-ms must not be negative, got '-5'");
    EXPECT_DEATH(obs::SloSpec::fromFlags(parse({"--slo-mttr-ms=-5"})),
                 "--slo-mttr-ms must not be negative");
    EXPECT_DEATH(
        obs::SloSpec::fromFlags(parse({"--slo-collective-ms=1e999"})),
        "--slo-collective-ms");
    EXPECT_DOUBLE_EQ(
        obs::SloSpec::fromFlags(parse({"--slo-mttr-ms=2000"}))
            .mttr_budget_s,
        2.0);
    EXPECT_FALSE(obs::SloSpec::fromFlags(parse({})).any()); // unset
}

TEST(EnvKnobsDeathTest, RuntimeKnobsParseStrictly)
{
    // Both defaults are read once per process; each death test runs
    // them in a fresh child.
    {
        ScopedEnv env("CCUBE_CCL_DEADLINE_MS", "500ms");
        EXPECT_DEATH(ccl::Communicator::defaultDeadline(),
                     "CCUBE_CCL_DEADLINE_MS wants an integer");
    }
    {
        ScopedEnv env("CCUBE_CCL_DEADLINE_MS", "-1");
        EXPECT_DEATH(ccl::Communicator::defaultDeadline(),
                     "CCUBE_CCL_DEADLINE_MS must not be negative");
    }
    {
        ScopedEnv env("CCUBE_CCL_SM_WORKERS", "4294967297");
        EXPECT_DEATH(ccl::StateMachineEngine::defaultWorkerCount(),
                     "CCUBE_CCL_SM_WORKERS wants an integer");
    }
    {
        ScopedEnv env("CCUBE_CCL_SM_WORKERS", "four");
        EXPECT_DEATH(ccl::StateMachineEngine::defaultWorkerCount(),
                     "CCUBE_CCL_SM_WORKERS");
    }
}

TEST(EnvKnobs, ValidAndEmptyValues)
{
    EXPECT_EQ(util::envInt("CCUBE_TEST_KNOB", 7), 7); // unset
    {
        ScopedEnv env("CCUBE_TEST_KNOB", "");
        EXPECT_EQ(util::envInt("CCUBE_TEST_KNOB", 7), 7);
    }
    {
        ScopedEnv env("CCUBE_TEST_KNOB", "0"); // 0 disables, not unset
        EXPECT_EQ(util::envInt("CCUBE_TEST_KNOB", 7), 0);
    }
    {
        ScopedEnv env("CCUBE_TEST_KNOB", "4");
        EXPECT_EQ(util::envInt("CCUBE_TEST_KNOB", 7), 4);
    }
}

TEST(CatalogExtra, AlexNetParameterCount)
{
    // Published AlexNet: ~61 M parameters, FC-dominated.
    const auto net = dnn::buildAlexNet();
    EXPECT_GT(net.totalParams(), 55000000);
    EXPECT_LT(net.totalParams(), 70000000);
}

TEST(CatalogExtra, Resnet101ParameterCount)
{
    // Published ResNet-101: ~44.5 M parameters.
    const auto net = dnn::buildResnet101();
    EXPECT_GT(net.totalParams(), 42000000);
    EXPECT_LT(net.totalParams(), 47000000);
    // Deeper than ResNet-50 but same stage pattern.
    EXPECT_GT(net.numLayers(), dnn::buildResnet50().numLayers());
}

} // namespace
} // namespace ccube
