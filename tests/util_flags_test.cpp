/**
 * @file
 * Tests for the CLI flag parser and the new catalog models.
 */

#include <gtest/gtest.h>

#include "dnn/catalog.h"
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
