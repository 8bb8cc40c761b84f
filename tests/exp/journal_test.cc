/**
 * @file
 * Tests for the write-ahead result journal: round-trip fidelity
 * (replayed JobResults equal the originals field-for-field, doubles
 * included), tolerance of the torn tail a SIGKILL mid-append leaves
 * behind, rejection of journals written for a different plan, and
 * out-of-order / duplicate entries (worker threads complete jobs in
 * any order; retried appends keep the last occurrence).
 */

#include "exp/journal.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"

namespace snoc {
namespace {

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

struct TempFile
{
    std::string path;
    TempFile(const char *tag)
        : path(::testing::TempDir() + "/snoc_journal_" + tag +
               ".jsonl")
    {
        std::remove(path.c_str());
    }
    ~TempFile() { std::remove(path.c_str()); }
};

ExperimentPlan
tinyPlan()
{
    ExperimentPlan plan;
    plan.name = "journal-test";
    plan.add(tinyScenario(0.02));
    plan.add(tinyScenario(0.05));
    return plan;
}

TEST(ResultJournal, RoundTripsJobResultsExactly)
{
    TempFile file("roundtrip");
    ExperimentPlan plan = tinyPlan();
    std::string hash = planHash(plan);

    RunnerOptions opts;
    opts.threads = 1;
    opts.batchLanes = 0;
    std::vector<JobResult> fresh = ExperimentRunner(opts).run(plan);

    {
        ResultJournal journal(file.path, hash);
        // Completion order is scheduler-dependent in real runs;
        // write out of order on purpose.
        journal.append(1, fresh[1]);
        journal.append(0, fresh[0]);
    }

    auto replayed = ResultJournal::replay(file.path, hash);
    ASSERT_EQ(replayed.size(), 2u);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        ASSERT_TRUE(replayed.count(i));
        // Energy is never journaled (re-derived on replay), so
        // compare everything else field-exactly.
        JobResult expect = fresh[i];
        for (ScenarioResult &p : expect.points)
            p.energy = EnergyMetrics{};
        EXPECT_TRUE(replayed[i] == expect) << "job " << i;
    }
}

TEST(ResultJournal, MissingFileReplaysEmpty)
{
    EXPECT_TRUE(
        ResultJournal::replay("/no/such/journal.jsonl", "whatever")
            .empty());
}

TEST(ResultJournal, TornTailIsDroppedNotFatal)
{
    TempFile file("torn");
    ExperimentPlan plan = tinyPlan();
    std::string hash = planHash(plan);

    RunnerOptions opts;
    opts.threads = 1;
    opts.batchLanes = 0;
    std::vector<JobResult> fresh = ExperimentRunner(opts).run(plan);
    {
        ResultJournal journal(file.path, hash);
        journal.append(0, fresh[0]);
        journal.append(1, fresh[1]);
    }

    // Simulate SIGKILL mid-append: truncate inside the last line.
    std::string text;
    {
        std::ifstream in(file.path, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out(file.path,
                          std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() - 25);
    }

    auto replayed = ResultJournal::replay(file.path, hash);
    ASSERT_EQ(replayed.size(), 1u); // the intact entry survives
    EXPECT_TRUE(replayed.count(0));
}

TEST(ResultJournal, DifferentPlanHashRefusesToReplay)
{
    TempFile file("mismatch");
    ExperimentPlan plan = tinyPlan();
    {
        ResultJournal journal(file.path, planHash(plan));
    }
    EXPECT_THROW(ResultJournal::replay(file.path, "deadbeef"),
                 FatalError);
}

TEST(ResultJournal, PlanHashTracksContentAndName)
{
    ExperimentPlan a = tinyPlan();
    ExperimentPlan b = tinyPlan();
    EXPECT_EQ(planHash(a), planHash(b));
    b.jobs[0].scenario.load = 0.09;
    EXPECT_NE(planHash(a), planHash(b));
}

TEST(ResultJournal, DuplicateEntriesKeepTheLastOccurrence)
{
    TempFile file("dup");
    ExperimentPlan plan = tinyPlan();
    std::string hash = planHash(plan);

    RunnerOptions opts;
    opts.threads = 1;
    opts.batchLanes = 0;
    std::vector<JobResult> fresh = ExperimentRunner(opts).run(plan);
    {
        ResultJournal journal(file.path, hash);
        JobResult stale = fresh[0];
        stale.retries = 7; // distinguishable bookkeeping
        journal.append(0, stale);
        journal.append(0, fresh[0]);
    }
    auto replayed = ResultJournal::replay(file.path, hash);
    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(replayed[0].retries, fresh[0].retries);
}

std::size_t
lineCount(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);)
        ++n;
    return n;
}

TEST(ResultJournal, AppendedLineIsInTheFileBeforeAppendReturns)
{
    // A SIGKILL right after append() must not lose the line, so it
    // has to be written before append() returns, not by the thread.
    TempFile file("written");
    ExperimentPlan plan = tinyPlan();
    std::string hash = planHash(plan);
    RunnerOptions opts;
    opts.threads = 1;
    opts.batchLanes = 0;
    std::vector<JobResult> fresh = ExperimentRunner(opts).run(plan);

    ResultJournal journal(file.path, hash);
    EXPECT_EQ(lineCount(file.path), 1u); // the header
    journal.append(1, fresh[1]);
    EXPECT_EQ(lineCount(file.path), 2u);
    journal.append(0, fresh[0]);
    EXPECT_EQ(lineCount(file.path), 3u);
    auto replayed = ResultJournal::replay(file.path, hash);
    EXPECT_EQ(replayed.size(), 2u);
    journal.close();
}

TEST(ResultJournal, ConcurrentAppendsAreAllReplayedIntact)
{
    TempFile file("concurrent");
    ExperimentPlan plan = tinyPlan();
    std::string hash = planHash(plan);
    RunnerOptions opts;
    opts.threads = 1;
    opts.batchLanes = 0;
    JobResult row = ExperimentRunner(opts).run(plan)[0];
    for (ScenarioResult &p : row.points)
        p.energy = EnergyMetrics{}; // never journaled

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 250;
    {
        ResultJournal journal(file.path, hash);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                for (std::size_t i = 0; i < kPerThread; ++i)
                    journal.append(t * kPerThread + i, row);
            });
        for (std::thread &t : threads)
            t.join();
    }

    // Every line parses (replay stops at the first torn one), and
    // each job index is present exactly as written.
    EXPECT_EQ(lineCount(file.path), 1 + kThreads * kPerThread);
    auto replayed = ResultJournal::replay(file.path, hash);
    ASSERT_EQ(replayed.size(), kThreads * kPerThread);
    for (const auto &[idx, result] : replayed)
        ASSERT_TRUE(result == row) << "job " << idx;
}

TEST(ResultJournal, FsyncFailureIsFatal)
{
    // fsync on /dev/null fails with EINVAL: the journal must raise
    // FatalError no later than its next append or its close, never
    // swallow the failure on its sync thread. (The header is fsync'd
    // in the constructor, so /dev/null already fails there.)
    std::string hash = planHash(tinyPlan());
    EXPECT_THROW(
        {
            ResultJournal journal("/dev/null", hash);
            journal.append(0, JobResult{});
            journal.close();
        },
        FatalError);
}

} // namespace
} // namespace snoc
