/**
 * @file
 * Tests for the content-addressed result store. The load-bearing
 * guarantee is that a cache hit is bitwise identical to a fresh
 * simulation — both at the SimResult level (operator== over every
 * field, doubles included) and at the rendered-output level, which
 * is what the crash-safe campaign contract promises users. The rest
 * pins the addressing scheme: keys depend on scenario content and
 * the code-version stamp, stale/corrupt entries degrade to misses,
 * and clear/prune do what `snoc cache` advertises. Concurrent puts
 * of the same keys through two handles on one root must all commit.
 */

#include "exp/result_store.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/log.hh"

#include "exp/runner.hh"
#include "exp/scenario.hh"

namespace snoc {
namespace {

namespace fs = std::filesystem;

Scenario
tinyScenario(double load = 0.05)
{
    SimConfig sim;
    sim.warmupCycles = 100;
    sim.measureCycles = 300;
    return makeSyntheticScenario("sn_54", "EB-Var",
                                 PatternKind::Random, load, 1,
                                 RoutingMode::Minimal, sim);
}

struct TempDir
{
    std::string path;
    TempDir(const char *tag)
        : path(::testing::TempDir() + "/snoc_store_" + tag)
    {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(ResultStore, KeyDependsOnScenarioContentAndStamp)
{
    Scenario a = tinyScenario(0.05);
    Scenario b = tinyScenario(0.05);
    EXPECT_EQ(resultKey(a), resultKey(b));
    EXPECT_EQ(resultKey(a).size(), 64u);

    b.load = 0.06;
    EXPECT_NE(resultKey(a), resultKey(b));

    Scenario c = tinyScenario(0.05);
    c.seed += 1;
    EXPECT_NE(resultKey(a), resultKey(c));

    // Execution knobs are not part of the scenario, so they cannot
    // perturb the key — the determinism contract makes the result a
    // pure function of the scenario alone.
    EXPECT_NE(resultStoreStamp().find("snoc-store-"),
              std::string::npos);
}

TEST(ResultStore, CacheHitIsBitwiseIdenticalToFreshRun)
{
    TempDir dir("hit");
    ResultStore store(dir.path);
    Scenario s = tinyScenario();

    SimResult fresh = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);
    EXPECT_FALSE(store.lookup(key).has_value()); // miss first
    store.put(key, s, fresh);

    std::optional<SimResult> hit = store.lookup(key);
    ASSERT_TRUE(hit.has_value());
    // Field-exact, doubles included: SimResult::operator== compares
    // every member bitwise-equal doubles via ==.
    EXPECT_TRUE(*hit == fresh);

    ResultStore::Stats st = store.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.puts, 1u);
}

TEST(ResultStore, RunnerServesCachedPointsIdentically)
{
    TempDir dir("runner");
    ResultStore store(dir.path);

    ExperimentPlan plan;
    plan.add(tinyScenario(0.04));
    plan.addSweep(tinyScenario(), {0.02, 0.05}, false);

    RunnerOptions opts;
    opts.threads = 1;
    opts.batchLanes = 0;
    opts.store = &store;

    std::vector<JobResult> cold = ExperimentRunner(opts).run(plan);
    std::vector<JobResult> warm = ExperimentRunner(opts).run(plan);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ASSERT_EQ(cold[i].points.size(), warm[i].points.size());
        for (std::size_t p = 0; p < cold[i].points.size(); ++p) {
            EXPECT_TRUE(cold[i].points[p].sim ==
                        warm[i].points[p].sim);
            EXPECT_TRUE(cold[i].points[p].energy ==
                        warm[i].points[p].energy);
        }
        EXPECT_EQ(cold[i].cacheHits, 0);
        EXPECT_EQ(warm[i].cacheMisses, 0);
        EXPECT_EQ(warm[i].cacheHits,
                  static_cast<int>(warm[i].points.size()));
    }
}

TEST(ResultStore, BatchedRunnerUsesTheStoreToo)
{
    TempDir dir("batched");
    ResultStore store(dir.path);

    ExperimentPlan plan;
    plan.addSweep(tinyScenario(), {0.02, 0.04, 0.06}, false);

    RunnerOptions opts;
    opts.threads = 1;
    opts.batchLanes = 4; // force the lane-batched path
    opts.store = &store;

    std::vector<JobResult> cold = ExperimentRunner(opts).run(plan);
    ASSERT_EQ(cold[0].cacheMisses, 3);
    std::vector<JobResult> warm = ExperimentRunner(opts).run(plan);
    EXPECT_EQ(warm[0].cacheHits, 3);
    EXPECT_EQ(warm[0].cacheMisses, 0);
    for (std::size_t p = 0; p < 3; ++p)
        EXPECT_TRUE(cold[0].points[p].sim == warm[0].points[p].sim);
}

TEST(ResultStore, StaleStampIsAMissAndPruneEvictsIt)
{
    TempDir dir("stale");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);

    {
        ResultStore old(dir.path, "snoc-store-v1:some-older-commit");
        old.put(key, s, r);
        EXPECT_TRUE(old.lookup(key).has_value());
    }

    ResultStore now(dir.path);
    EXPECT_FALSE(now.lookup(key).has_value()); // foreign stamp
    ResultStore::Usage u = now.usage();
    EXPECT_EQ(u.entries, 0u);
    EXPECT_EQ(u.stale, 1u);

    EXPECT_EQ(now.prune(), 1u);
    EXPECT_EQ(now.usage().stale, 0u);
}

TEST(ResultStore, CorruptEntryIsAMissNeverAnError)
{
    TempDir dir("corrupt");
    ResultStore store(dir.path);
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);
    store.put(key, s, r);

    // Tear the entry the way a crashed writer would.
    std::string entry = dir.path + "/objects/" + key.substr(0, 2) +
                        "/" + key + ".json";
    {
        std::ofstream f(entry, std::ios::trunc);
        f << "{\"key\": \"" << key << "\", \"stam"; // torn mid-token
    }

    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.usage().corrupt, 1u);
    EXPECT_EQ(store.prune(), 1u); // prune sweeps corrupt files too
    EXPECT_EQ(store.usage().corrupt, 0u);
}

TEST(ResultStore, ClearRemovesEverything)
{
    TempDir dir("clear");
    ResultStore store(dir.path);
    for (double load : {0.02, 0.04, 0.06}) {
        Scenario s = tinyScenario(load);
        store.put(resultKey(s), s, ExperimentRunner::runScenario(s));
    }
    EXPECT_EQ(store.usage().entries, 3u);
    EXPECT_EQ(store.clear(), 3u);
    EXPECT_EQ(store.usage().entries, 0u);
}

TEST(ResultStore, ConcurrentPutsOnASharedRootAllCommit)
{
    // Two handles on one root stand in for two campaigns sharing a
    // store: 8 threads race to put the same keys, so every put
    // contends with puts of the same entry from the other handle.
    TempDir dir("shared");
    ResultStore a(dir.path);
    ResultStore b(dir.path);
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);

    constexpr int kKeys = 200;
    constexpr int kRounds = 5;
    std::vector<std::string> keys;
    for (int k = 0; k < kKeys; ++k)
        keys.push_back(sha256Hex("shared-store-key-" + std::to_string(k)));

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            ResultStore &store = t % 2 ? b : a;
            for (int round = 0; round < kRounds; ++round)
                for (const std::string &key : keys) {
                    try {
                        store.put(key, s, r);
                    } catch (const FatalError &) {
                        failures.fetch_add(1);
                    }
                }
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(failures.load(), 0);
    for (const std::string &key : keys) {
        std::optional<SimResult> hit = a.lookup(key);
        ASSERT_TRUE(hit.has_value()) << key;
        EXPECT_TRUE(*hit == r);
    }
    int leftovers = 0;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(dir.path))
        leftovers += e.path().extension() == ".tmp" ? 1 : 0;
    EXPECT_EQ(leftovers, 0);
}

} // namespace
} // namespace snoc
