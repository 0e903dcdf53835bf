/**
 * @file
 * The bench binaries' shared command line (bench/bench_util.hh): the
 * preset is picked before any other flag applies, so flag order never
 * drops --quick or --spans; malformed flags and unknown workloads exit
 * with a usage message.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_util.hh"

namespace banshee::benchutil {
namespace {

BenchOptions
parse(std::vector<std::string> args,
      std::initializer_list<std::pair<const char *, bool *>> extra = {})
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parseArgs(static_cast<int>(argv.size()), argv.data(), "bench",
                     extra);
}

TEST(BenchArgs, QuickAppliesInEitherOrderWithFull)
{
    const SystemConfig paper = SystemConfig::paperDefault();
    for (const auto &args :
         {std::vector<std::string>{"--quick", "--full"},
          std::vector<std::string>{"--full", "--quick"}}) {
        const BenchOptions opt = parse(args);
        EXPECT_EQ(opt.base.warmupInstrPerCore,
                  paper.warmupInstrPerCore / 4)
            << args[0];
        EXPECT_EQ(opt.base.measureInstrPerCore,
                  paper.measureInstrPerCore / 4)
            << args[0];
        EXPECT_EQ(opt.base.mem.inPkgCapacity, paper.mem.inPkgCapacity);
    }
}

TEST(BenchArgs, QuickQuartersTheScaledDefault)
{
    const SystemConfig scaled = SystemConfig::scaledDefault();
    const BenchOptions opt = parse({"--quick"});
    EXPECT_TRUE(opt.quick);
    EXPECT_EQ(opt.base.warmupInstrPerCore, scaled.warmupInstrPerCore / 4);
    EXPECT_EQ(opt.base.measureInstrPerCore,
              scaled.measureInstrPerCore / 4);
}

TEST(BenchArgs, SpansSurviveFullInEitherOrder)
{
    for (const auto &args :
         {std::vector<std::string>{"--spans=3", "--full"},
          std::vector<std::string>{"--full", "--spans=3"}}) {
        const BenchOptions opt = parse(args);
        EXPECT_TRUE(opt.base.spans.enabled) << args[0];
        // Every trace carries its epoch timeline.
        EXPECT_TRUE(opt.base.telemetry.enabled) << args[0];
        EXPECT_EQ(opt.base.spans.sampleShift, 3u);
        EXPECT_EQ(opt.base.spans.path, "SPANS_bench/");
        EXPECT_EQ(opt.spansDir, "SPANS_bench");
    }
}

TEST(BenchArgs, ValueFlagsAndExtraSwitches)
{
    bool sched = false;
    const BenchOptions opt =
        parse({"--threads", "3", "--json", "out.json", "--workloads",
               "mcf,,omnetpp,", "--sched"},
              {{"--sched", &sched}});
    EXPECT_TRUE(sched);
    EXPECT_EQ(opt.threads, 3u);
    EXPECT_EQ(opt.jsonPath, "out.json");
    EXPECT_TRUE(opt.workloadsExplicit);
    EXPECT_FALSE(opt.quick);
    EXPECT_EQ(opt.workloads, (std::vector<std::string>{"mcf", "omnetpp"}));
    EXPECT_FALSE(opt.base.telemetry.enabled);
    EXPECT_FALSE(opt.base.spans.enabled);
}

TEST(BenchArgsDeathTest, MalformedFlagsPrintUsage)
{
    EXPECT_EXIT(parse({"--threads", "abc"}), ::testing::ExitedWithCode(1),
                "--threads needs a number");
    EXPECT_EXIT(parse({"--spans=25"}), ::testing::ExitedWithCode(1),
                "--spans needs a sample shift");
    EXPECT_EXIT(parse({"--workloads", ","}), ::testing::ExitedWithCode(1),
                "--workloads needs at least one");
    EXPECT_EXIT(parse({"--workloads", "mcf,nosuch"}),
                ::testing::ExitedWithCode(1), "unknown workload 'nosuch'");
    EXPECT_EXIT(parse({"--telemetry", "x"}), ::testing::ExitedWithCode(1),
                "unknown or incomplete argument '--telemetry'");
    EXPECT_EXIT(parse({"--json"}), ::testing::ExitedWithCode(1),
                "unknown or incomplete argument '--json'");
    EXPECT_EXIT(parse({"--bogus"}), ::testing::ExitedWithCode(1),
                "unknown or incomplete argument '--bogus'");
}

} // namespace
} // namespace banshee::benchutil
