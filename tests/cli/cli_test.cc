/**
 * @file
 * In-process tests for the `snoc` CLI driver: `list` must enumerate
 * exactly the registered set of every scenario axis, `describe` must
 * resolve committed plan files, and `run` on the committed CI smoke
 * plan must reproduce the checked-in golden JSON byte-for-byte
 * (engine determinism makes that well-defined for any worker count)
 * and write a well-formed run manifest.
 */

#include "cli/cli.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "common/env.hh"
#include "common/json.hh"
#include "exp/plan_io.hh"
#include "exp/result_sink.hh"
#include "power/tech_params.hh"
#include "sim/router_config.hh"
#include "sim/routing.hh"
#include "topo/table4.hh"
#include "trace/workloads.hh"
#include "traffic/patterns.hh"

#ifndef SNOC_SOURCE_DIR
#define SNOC_SOURCE_DIR "."
#endif

namespace snoc {
namespace {

/** Run the CLI in-process with a clean knob environment. */
int
cli(const std::vector<std::string> &args, std::string *out = nullptr,
    std::string *err = nullptr)
{
    for (const EnvKnob &k : envKnobs())
        ::unsetenv(k.name);
    std::ostringstream o, e;
    int rc = cli::runCli(args, o, e);
    if (out)
        *out = o.str();
    if (err)
        *err = e.str();
    return rc;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream iss(text);
    std::string line;
    while (std::getline(iss, line))
        out.push_back(line);
    return out;
}

TEST(Cli, ListEnumeratesExactlyTheRegisteredSets)
{
    std::string out;
    ASSERT_EQ(cli({"list", "topologies"}, &out), 0);
    EXPECT_EQ(lines(out), namedTopologyIds());

    ASSERT_EQ(cli({"list", "routings"}, &out), 0);
    EXPECT_EQ(lines(out), routingModeNames());

    ASSERT_EQ(cli({"list", "patterns"}, &out), 0);
    EXPECT_EQ(lines(out), patternNames());

    ASSERT_EQ(cli({"list", "workloads"}, &out), 0);
    EXPECT_EQ(lines(out), workloadNames());

    ASSERT_EQ(cli({"list", "configs"}, &out), 0);
    EXPECT_EQ(lines(out), RouterConfig::names());

    ASSERT_EQ(cli({"list", "techs"}, &out), 0);
    EXPECT_EQ(lines(out), techCornerNames());

    ASSERT_EQ(cli({"list", "formats"}, &out), 0);
    EXPECT_EQ(lines(out), resultSinkFormats());
}

TEST(Cli, ListKnobsCoversTheRegistry)
{
    std::string out;
    ASSERT_EQ(cli({"list", "knobs"}, &out), 0);
    for (const EnvKnob &k : envKnobs())
        EXPECT_NE(out.find(k.name), std::string::npos) << k.name;

    ASSERT_EQ(cli({"list", "knobs", "--markdown"}, &out), 0);
    EXPECT_NE(out.find("| knob | default |"), std::string::npos);
    for (const EnvKnob &k : envKnobs())
        EXPECT_NE(out.find(std::string("`") + k.name + "`"),
                  std::string::npos);
}

TEST(Cli, UsageAndErrors)
{
    std::string out, err;
    EXPECT_EQ(cli({}, &out, &err), 2);
    EXPECT_NE(err.find("usage:"), std::string::npos);
    EXPECT_EQ(cli({"list", "nonsense"}, &out, &err), 2);
    EXPECT_EQ(cli({"bogus-command"}, &out, &err), 2);
    EXPECT_EQ(cli({"run", "/no/such/plan.json"}, &out, &err), 1);
    EXPECT_NE(err.find("not found"), std::string::npos);

    // Malformed --threads is a clean error, not a std::stoi abort.
    EXPECT_EQ(cli({"run", "plans/ci_smoke.json", "--threads", "abc"},
                  &out, &err),
              1);
    EXPECT_NE(err.find("--threads"), std::string::npos);
    EXPECT_EQ(cli({"run", "plans/ci_smoke.json", "--threads",
                   "99999999999999999999"},
                  &out, &err),
              1);

    EXPECT_EQ(cli({"version"}, &out, &err), 0);
    EXPECT_NE(out.find("snoc "), std::string::npos);
}

TEST(Cli, DescribeResolvesCommittedPlans)
{
    std::string out;
    ASSERT_EQ(cli({"describe", "plans/ci_smoke.json"}, &out), 0);
    EXPECT_NE(out.find("plan     ci-smoke"), std::string::npos);
    EXPECT_NE(out.find("jobs     4"), std::string::npos);
    EXPECT_NE(out.find("canonical form:"), std::string::npos);

    // The commented demo plan parses too.
    ASSERT_EQ(cli({"describe", "plans/custom_campaign.json"}, &out),
              0);
    EXPECT_NE(out.find("jobs     19"), std::string::npos);
}

TEST(Cli, RunMatchesTheCommittedGoldenAndWritesAManifest)
{
    std::string manifestPath =
        ::testing::TempDir() + "/snoc_manifest_test.json";
    std::string out, err;
    ASSERT_EQ(cli({"run", "plans/ci_smoke.json", "--format", "json",
                   "--threads", "2", "--manifest", manifestPath},
                  &out, &err),
              0)
        << err;

    std::string golden = readTextFile(
        std::string(SNOC_SOURCE_DIR) +
        "/tests/exp/golden/ci_smoke.expected.json");
    EXPECT_EQ(out, golden)
        << "snoc run output drifted from the committed golden; "
           "regenerate it intentionally if the report or plan "
           "changed";

    JsonValue manifest = JsonValue::parse(
        readTextFile(manifestPath), manifestPath);
    EXPECT_EQ(manifest.find("tool")->asString("$.tool"), "snoc");
    EXPECT_EQ(manifest.find("planName")->asString("$.planName"),
              "ci-smoke");
    EXPECT_EQ(manifest.find("jobs")->asU64("$.jobs"), 4u);
    EXPECT_EQ(manifest.find("points")->asU64("$.points"), 5u);
    EXPECT_EQ(manifest.find("threads")->asU64("$.threads"), 2u);
    ASSERT_NE(manifest.find("version"), nullptr);
    ASSERT_NE(manifest.find("seeds"), nullptr);
    EXPECT_EQ(manifest.find("seeds")->items("$.seeds").size(), 4u);
    // Every declared knob is recorded.
    for (const EnvKnob &k : envKnobs())
        EXPECT_NE(manifest.find("knobs")->find(k.name), nullptr)
            << k.name;
    std::remove(manifestPath.c_str());
}

TEST(Cli, FailedJobsExitThreeWithAFailureSummary)
{
    // The committed crash-injection plan, with the test hook armed
    // and fork isolation on so the aborting job cannot take the CLI
    // process down with it.
    for (const EnvKnob &k : envKnobs())
        ::unsetenv(k.name);
    ::setenv(kEnvExpTestHook, "1", 1);
    ::setenv(kEnvExpIsolate, "fork", 1);
    std::ostringstream o, e;
    int rc = cli::runCli({"run", "plans/crashy.json", "--format",
                          "json", "--threads", "1", "--no-manifest",
                          "--no-journal"},
                         o, e);
    ::unsetenv(kEnvExpTestHook);
    ::unsetenv(kEnvExpIsolate);
    std::string out = o.str(), err = e.str();

    EXPECT_EQ(rc, 3);
    // Failed rows are visible in the report...
    EXPECT_NE(out.find("\"status\": \"failed\""), std::string::npos)
        << out;
    // ...and the stderr summary names each failed job and its error.
    EXPECT_NE(err.find("2 of 4 jobs failed"), std::string::npos)
        << err;
    EXPECT_NE(err.find("crashed"), std::string::npos) << err;
    EXPECT_NE(err.find("synthetic failure"), std::string::npos)
        << err;
}

TEST(Cli, CacheSubcommandAndStoreRoundTrip)
{
    std::string storeDir = ::testing::TempDir() + "/snoc_cli_store";
    std::filesystem::remove_all(storeDir);

    // Cold run populates the store; the warm run is served from it
    // and must be byte-identical.
    std::string cold, warm, err;
    ASSERT_EQ(cli({"run", "plans/ci_smoke.json", "--format", "json",
                   "--threads", "1", "--no-manifest", "--no-journal",
                   "--store", storeDir},
                  &cold, &err),
              0)
        << err;
    ASSERT_EQ(cli({"run", "plans/ci_smoke.json", "--format", "json",
                   "--threads", "1", "--no-manifest", "--no-journal",
                   "--store", storeDir},
                  &warm, &err),
              0)
        << err;
    EXPECT_EQ(warm, cold);

    std::string out;
    ASSERT_EQ(cli({"cache", "stats", "--store", storeDir}, &out), 0);
    EXPECT_NE(out.find("entries  5"), std::string::npos) << out;

    ASSERT_EQ(cli({"cache", "prune", "--store", storeDir}, &out), 0);
    EXPECT_NE(out.find("removed 0 stale/corrupt"), std::string::npos)
        << out;
    ASSERT_EQ(cli({"cache", "clear", "--store", storeDir}, &out), 0);
    EXPECT_NE(out.find("removed 5"), std::string::npos) << out;
    ASSERT_EQ(cli({"cache", "stats", "--store", storeDir}, &out), 0);
    EXPECT_NE(out.find("entries  0"), std::string::npos) << out;

    // Without a configured store the subcommand fails cleanly, and
    // bad usage stays exit code 2.
    EXPECT_EQ(cli({"cache", "stats"}, &out, &err), 1);
    EXPECT_NE(err.find("no result store"), std::string::npos) << err;
    EXPECT_EQ(cli({"cache", "bogus"}, &out, &err), 2);

    // A store path that does not exist is an error, and inspecting
    // it creates nothing.
    std::string missing = storeDir + "_typo";
    std::filesystem::remove_all(missing);
    for (const char *action : {"stats", "prune", "clear"}) {
        EXPECT_EQ(cli({"cache", action, "--store", missing}, &out, &err),
                  1)
            << action;
        EXPECT_NE(err.find("no result store at '" + missing + "'"),
                  std::string::npos)
            << err;
        EXPECT_FALSE(std::filesystem::exists(missing)) << action;
    }
    std::filesystem::remove_all(storeDir);
}

TEST(Cli, ResumeRequiresTheJournal)
{
    std::string out, err;
    EXPECT_EQ(cli({"run", "plans/ci_smoke.json", "--resume",
                   "--no-journal"},
                  &out, &err),
              1);
    EXPECT_NE(err.find("--resume"), std::string::npos) << err;
}

} // namespace
} // namespace snoc
