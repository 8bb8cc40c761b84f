/**
 * @file
 * Tests for the content-addressed result store. The load-bearing
 * guarantee is that a cache hit is bitwise identical to a fresh
 * simulation — both at the SimResult level (operator== over every
 * field, doubles included) and at the rendered-output level, which
 * is what the crash-safe campaign contract promises users. The rest
 * pins the addressing scheme and the pack layout: keys depend on
 * scenario content and the code-version stamp, torn, damaged and
 * stale lines degrade to misses, each stamp keeps its own packs,
 * each handle writes its own pack and sees what was on disk when it
 * opened, and clear/prune do what `snoc cache` advertises.
 * Concurrent puts of the same keys through two handles on one root
 * must all commit.
 */

#include "exp/result_store.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
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

/** The pack files under a store root, every stamp's, in name order. */
std::vector<std::string>
packFiles(const std::string &root)
{
    std::vector<std::string> packs;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(root + "/packs"))
        if (e.is_regular_file())
            packs.push_back(e.path().string());
    std::sort(packs.begin(), packs.end());
    return packs;
}

/** The directories under <root>/packs: one per stamp that wrote. */
std::size_t
stampDirs(const std::string &root)
{
    std::size_t dirs = 0;
    for (const fs::directory_entry &e :
         fs::directory_iterator(root + "/packs"))
        dirs += e.is_directory() ? 1 : 0;
    return dirs;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::vector<std::string>
testKeys(const std::string &tag, int n)
{
    std::vector<std::string> keys;
    for (int k = 0; k < n; ++k)
        keys.push_back(sha256Hex(tag + std::to_string(k)));
    return keys;
}

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

TEST(ResultStore, EachStampKeepsItsOwnPacksAndPruneDropsTheOthers)
{
    TempDir dir("stamps");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::vector<std::string> keys = testKeys("stamps-", 3);

    // The same keys under two stamps: each handle sees only its own
    // stamp's lines, and the other stamp's pack is never indexed.
    ResultStore old(dir.path, "snoc-store-v1:some-older-commit");
    ResultStore now(dir.path);
    for (const std::string &key : keys) {
        old.put(key, s, r);
        now.put(key, s, r);
    }
    EXPECT_EQ(stampDirs(dir.path), 2u);
    ResultStore reopened(dir.path);
    for (const std::string &key : keys) {
        std::optional<SimResult> hit = reopened.lookup(key);
        ASSERT_TRUE(hit.has_value()) << key;
        EXPECT_TRUE(*hit == r);
    }

    ResultStore::Usage u = reopened.usage();
    EXPECT_EQ(u.entries, keys.size());
    EXPECT_EQ(u.stale, keys.size());
    EXPECT_EQ(u.corrupt, 0u);
    EXPECT_EQ(u.bytes, fs::file_size(packFiles(dir.path)[0]) +
                           fs::file_size(packFiles(dir.path)[1]));

    // prune drops the other stamp's directory whole.
    EXPECT_EQ(reopened.prune(), keys.size());
    EXPECT_EQ(stampDirs(dir.path), 1u);
    EXPECT_EQ(packFiles(dir.path).size(), 1u);
    EXPECT_EQ(reopened.usage().stale, 0u);
    for (const std::string &key : keys)
        EXPECT_TRUE(ResultStore(dir.path).lookup(key).has_value());

    // A pruned stamp's next handle can still put: its directory comes
    // back with its first pack.
    ResultStore older(dir.path, "snoc-store-v1:some-older-commit");
    EXPECT_FALSE(older.lookup(keys[0]).has_value());
    older.put(keys[0], s, r);
    EXPECT_EQ(stampDirs(dir.path), 2u);
    EXPECT_EQ(reopened.usage().stale, 1u);
}

TEST(ResultStore, OpenNeverReadsAnotherStampsDirectory)
{
    TempDir dir("foreign");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::vector<std::string> keys = testKeys("foreign-", 4);
    {
        ResultStore writer(dir.path);
        for (const std::string &key : keys)
            writer.put(key, s, r);
    }

    // Move this stamp's packs under another stamp's tag. Their lines
    // still carry this stamp, so only where they sit can hide them.
    std::vector<std::string> packs = packFiles(dir.path);
    ASSERT_EQ(packs.size(), 1u);
    fs::path own = fs::path(packs[0]).parent_path();
    fs::rename(own, own.parent_path() / "0000000000000000");

    ResultStore store(dir.path);
    for (const std::string &key : keys)
        EXPECT_FALSE(store.lookup(key).has_value()) << key;
    ResultStore::Usage u = store.usage();
    EXPECT_EQ(u.entries, 0u);
    EXPECT_EQ(u.stale, keys.size()); // counted, never parsed
    EXPECT_EQ(store.prune(), keys.size());
    EXPECT_EQ(stampDirs(dir.path), 0u);
}

TEST(ResultStore, CorruptEntryIsAMissNeverAnError)
{
    TempDir dir("corrupt");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);
    {
        ResultStore writer(dir.path);
        writer.put(key, s, r);
    }

    // Tear the entry the way a crashed writer would: the pack ends
    // mid-line.
    std::vector<std::string> packs = packFiles(dir.path);
    ASSERT_EQ(packs.size(), 1u);
    fs::resize_file(packs[0], fs::file_size(packs[0]) / 2);

    ResultStore store(dir.path);
    EXPECT_FALSE(store.lookup(key).has_value());
    EXPECT_EQ(store.usage().corrupt, 1u);
    EXPECT_EQ(store.prune(), 1u); // prune drops torn lines too
    EXPECT_EQ(store.usage().corrupt, 0u);
}

TEST(ResultStore, TornLineDoesNotShadowAnEarlierLineOfItsKey)
{
    TempDir dir("shadow");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::string key = resultKey(s);
    {
        ResultStore writer(dir.path);
        writer.put(key, s, r);
        writer.put(key, s, r); // the later line of the key
    }

    // A crash mid-way through the later line: only lines that end in
    // a newline are indexed, so the earlier one still serves the key.
    std::vector<std::string> packs = packFiles(dir.path);
    ASSERT_EQ(packs.size(), 1u);
    std::uintmax_t size = fs::file_size(packs[0]);
    fs::resize_file(packs[0], size * 3 / 4);

    ResultStore store(dir.path);
    std::optional<SimResult> hit = store.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(*hit == r);
    EXPECT_EQ(store.usage().corrupt, 1u);
}

TEST(ResultStore, DamagedLineIsAMissAndItsNeighboursStillHit)
{
    TempDir dir("damaged");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::vector<std::string> keys = testKeys("damaged-", 3);
    {
        ResultStore writer(dir.path);
        for (const std::string &key : keys)
            writer.put(key, s, r);
    }

    // Damage the second line's closing brace, keeping its key and its
    // newline: the index still points at it, the parse fails.
    std::vector<std::string> packs = packFiles(dir.path);
    ASSERT_EQ(packs.size(), 1u);
    std::string text = readFile(packs[0]);
    std::size_t secondEnd = text.find('\n', text.find('\n') + 1);
    ASSERT_EQ(text[secondEnd - 1], '}');
    text[secondEnd - 1] = '#';
    std::ofstream(packs[0], std::ios::binary | std::ios::trunc) << text;

    ResultStore store(dir.path);
    ASSERT_TRUE(store.lookup(keys[0]).has_value());
    EXPECT_TRUE(*store.lookup(keys[0]) == r);
    EXPECT_FALSE(store.lookup(keys[1]).has_value());
    ASSERT_TRUE(store.lookup(keys[2]).has_value());
    EXPECT_TRUE(*store.lookup(keys[2]) == r);
    ResultStore::Usage u = store.usage();
    EXPECT_EQ(u.entries, 2u);
    EXPECT_EQ(u.corrupt, 1u);
}

TEST(ResultStore, HandleOpenedLaterHitsEveryEarlierPut)
{
    TempDir dir("later");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::vector<std::string> keys = testKeys("later-", 50);

    ResultStore first(dir.path);
    for (const std::string &key : keys)
        first.put(key, s, r);

    // `first` stays open: its pack need not be closed to be read.
    ResultStore second(dir.path);
    for (const std::string &key : keys) {
        std::optional<SimResult> hit = second.lookup(key);
        ASSERT_TRUE(hit.has_value()) << key;
        EXPECT_TRUE(*hit == r);
    }
    EXPECT_EQ(second.stats().hits, keys.size());
}

TEST(ResultStore, EachHandleWritesItsOwnPack)
{
    TempDir dir("packs");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::vector<std::string> keys = testKeys("packs-", 2);

    ResultStore a(dir.path);
    ResultStore b(dir.path);
    ResultStore reader(dir.path);
    a.put(keys[0], s, r);
    b.put(keys[1], s, r);
    a.put(keys[1], s, r);
    EXPECT_FALSE(reader.lookup(keys[0]).has_value()); // opened before

    // Two writers, two packs; a handle that only looks up adds none.
    std::vector<std::string> packs = packFiles(dir.path);
    ASSERT_EQ(packs.size(), 2u);
    EXPECT_NE(packs[0], packs[1]);
    for (const std::string &pack : packs)
        EXPECT_EQ(fs::path(pack).extension(), ".jsonl");
}

TEST(ResultStore, PruneCompactsDuplicatesIntoOnePack)
{
    TempDir dir("compact");
    Scenario s = tinyScenario();
    SimResult r = ExperimentRunner::runScenario(s);
    std::vector<std::string> keys = testKeys("compact-", 20);

    ResultStore a(dir.path);
    {
        ResultStore b(dir.path);
        for (const std::string &key : keys) {
            a.put(key, s, r);
            b.put(key, s, r);
        }
    }
    EXPECT_EQ(packFiles(dir.path).size(), 2u);
    EXPECT_EQ(a.usage().entries, keys.size());

    EXPECT_EQ(a.prune(), 0u); // duplicates are neither stale nor corrupt
    std::vector<std::string> packs = packFiles(dir.path);
    ASSERT_EQ(packs.size(), 1u);
    std::string text = readFile(packs[0]);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              keys.size());
    EXPECT_EQ(a.usage().entries, keys.size());

    ResultStore fresh(dir.path);
    for (const std::string &key : keys) {
        ASSERT_TRUE(a.lookup(key).has_value()) << key;
        std::optional<SimResult> hit = fresh.lookup(key);
        ASSERT_TRUE(hit.has_value()) << key;
        EXPECT_TRUE(*hit == r);
    }
}

TEST(ResultStore, ClearAndPruneRemoveTheOldObjectsTree)
{
    TempDir dir("objects");
    ResultStore store(dir.path);
    fs::path objects = fs::path(dir.path) / "objects";
    auto plantOldEntry = [&] {
        std::string key = sha256Hex("old-layout");
        fs::create_directories(objects / key.substr(0, 2));
        std::ofstream(objects / key.substr(0, 2) / (key + ".json"))
            << "{\"key\": \"" << key << "\"}\n";
    };

    plantOldEntry();
    store.clear();
    EXPECT_FALSE(fs::exists(objects));

    plantOldEntry();
    store.prune();
    EXPECT_FALSE(fs::exists(objects));
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

    constexpr int kRounds = 5;
    std::vector<std::string> keys = testKeys("shared-store-key-", 200);

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
