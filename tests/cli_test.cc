// Tests for the CLI front end (src/cli/cli.h), exercised in-process.
#include "src/cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace pjsched::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(CliTest, MissingCommandIsUsageError) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownFlagRejected) {
  const auto r = run({"run", "--frobnicate=1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
}

TEST(CliTest, BadValueRejected) {
  EXPECT_EQ(run({"run", "--jobs=banana"}).code, 2);
  EXPECT_EQ(run({"run", "--workload=unknown"}).code, 2);
  EXPECT_EQ(run({"run", "--scheduler=unknown"}).code, 2);
  // Integer flags take digits only, the whole value, within range: a sign,
  // a trailing character or an overflow is a usage error, never a wrap.
  for (const char* arg :
       {"--jobs=10x", "--jobs=-1", "--jobs=+5", "--jobs=", "--m=-1",
        "--m=4294967297", "--seed=-1", "--seed=18446744073709551616",
        "--grains=1.5", "--gantt=-1", "--utilization=x", "--trials=-1",
        "--degrade=1:-1", "--degrade=1:4294967296",
        "--scheduler=steal--1-first", "--scheduler=steal-4294967296-first"}) {
    SCOPED_TRACE(arg);
    const auto r = run({"run", "--jobs=10", arg});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
  }
}

TEST(CliTest, RunPrintsSummary) {
  const auto r = run({"run", "--jobs=30", "--qps=500", "--m=4",
                      "--scheduler=fifo", "--seed=3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheduler:        fifo"), std::string::npos);
  EXPECT_NE(r.out.find("max flow:"), std::string::npos);
  EXPECT_NE(r.out.find("opt lower bound:"), std::string::npos);
}

TEST(CliTest, RunCsvOutput) {
  const auto r = run({"run", "--jobs=20", "--m=2", "--scheduler=admit-first",
                      "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheduler,jobs,m,speed,max_flow_ms"),
            std::string::npos);
  EXPECT_NE(r.out.find("admit-first,20,2,"), std::string::npos);
}

TEST(CliTest, RunWithGantt) {
  const auto r = run({"run", "--jobs=10", "--m=2", "--scheduler=fifo",
                      "--gantt=40"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("P0"), std::string::npos);
  EXPECT_NE(r.out.find("P1"), std::string::npos);
}

TEST(CliTest, RunWithUtilizationProfile) {
  const auto r = run({"run", "--jobs=10", "--m=2", "--scheduler=fifo",
                      "--utilization=5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("utilization profile"), std::string::npos);
}

TEST(CliTest, DeterministicAcrossInvocations) {
  const auto a = run({"run", "--jobs=50", "--scheduler=steal-8-first",
                      "--seed=11", "--csv"});
  const auto b = run({"run", "--jobs=50", "--scheduler=steal-8-first",
                      "--seed=11", "--csv"});
  EXPECT_EQ(a.out, b.out);
}

TEST(CliTest, MultiTrialRun) {
  const auto r = run({"run", "--jobs=100", "--trials=3", "--m=4",
                      "--scheduler=admit-first"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3 trials"), std::string::npos);
  EXPECT_NE(r.out.find("max_flow_ms"), std::string::npos);
  EXPECT_NE(r.out.find("ratio_to_opt"), std::string::npos);
}

TEST(CliTest, TrialsRejectBadCombinations) {
  EXPECT_EQ(run({"run", "--trials=0"}).code, 2);
  EXPECT_EQ(run({"run", "--trials=2", "--load=/tmp/x"}).code, 2);
}

TEST(CliTest, WeightsFlag) {
  const auto r = run({"run", "--jobs=50", "--weights=1,4,16", "--m=4",
                      "--scheduler=steal-4-first-bwf", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("steal-4-first-bwf"), std::string::npos);
  EXPECT_EQ(run({"run", "--weights=banana"}).code, 2);
}

// Every scheduler streams, the OPT bound included: its streamed run is the
// opt-sim bound itself, so the two lines print the same value.
TEST(CliTest, StreamedOptRun) {
  const auto r = run({"run", "--streamed", "--scheduler=opt", "--jobs=40",
                      "--m=4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheduler:        opt-lower-bound (streamed)"),
            std::string::npos);
  const auto value = [&r](const std::string& label) {
    const std::size_t at = r.out.find(label);
    if (at == std::string::npos) return std::string("missing");
    const std::size_t begin = at + label.size();
    return r.out.substr(begin, r.out.find(" ms", begin) - begin);
  };
  EXPECT_EQ(value("max flow:         "), value("opt-sim bound:    "));
}

TEST(CliTest, BoundsCommand) {
  const auto r = run({"bounds", "--jobs=25", "--workload=finance", "--m=8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("span (max P_i)"), std::string::npos);
  EXPECT_NE(r.out.find("combined"), std::string::npos);
}

TEST(CliTest, GenerateThenLoadRoundTrip) {
  const auto gen = run({"generate", "--jobs=15", "--workload=lognormal",
                        "--seed=5"});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("instance 15"), std::string::npos);

  const std::string path = "/tmp/pjsched_cli_test_instance.txt";
  {
    std::ofstream f(path);
    f << gen.out;
  }
  const auto loaded = run({"run", std::string("--load=") + path, "--m=4",
                           "--scheduler=fifo", "--csv"});
  EXPECT_EQ(loaded.code, 0) << loaded.err;
  EXPECT_NE(loaded.out.find("fifo,15,4,"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, LoadMissingFileFails) {
  const auto r = run({"run", "--load=/nonexistent/path.txt"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, ChromeTraceWritten) {
  const std::string path = "/tmp/pjsched_cli_test_trace.json";
  const auto r = run({"run", "--jobs=8", "--m=2", "--scheduler=admit-first",
                      std::string("--chrome-trace=") + path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("traceEvents"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pjsched::cli
