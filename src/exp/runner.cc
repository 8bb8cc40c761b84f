#include "exp/runner.hh"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/env.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "exp/result_store.hh"
#include "exp/serialize.hh"
#include "power/power_model.hh"
#include "sim/batch.hh"
#include "sim/shard.hh"
#include "topo/topology_cache.hh"
#include "trace/trace.hh"
#include "traffic/synthetic.hh"
#include "workload/closed_loop.hh"
#include "workload/collective.hh"

namespace snoc {

namespace {

int
resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    if (int n = envInt(kEnvExpThreads, 0); n > 0)
        return n;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int
resolveBatchLanes(int requested)
{
    int lanes = requested;
    if (lanes < 0) {
        std::string raw = envRaw(kEnvExpBatch);
        if (raw.empty() || raw == "1")
            lanes = 8; // on by default: results are identical
        else if (raw == "off" || raw == "0")
            lanes = 0;
        else {
            int n = std::atoi(raw.c_str());
            lanes = n >= 2 ? n : 8;
        }
    }
    if (lanes <= 1)
        return 0;
    return std::min(lanes, BatchedNetwork::kMaxLanes);
}

constexpr int kMaxShards = 64;

int
resolveSimShards(int requested)
{
    int shards = requested;
    if (shards < 0) {
        std::string raw = envRaw(kEnvSimShards);
        if (raw.empty() || raw == "off" || raw == "0" || raw == "1")
            shards = 1; // serial loop by default
        else {
            int n = std::atoi(raw.c_str());
            shards = n >= 2 ? n : 1;
        }
    }
    if (shards <= 1)
        return 1;
    return std::min(shards, kMaxShards);
}

bool
resolveIsolate(int requested)
{
    if (requested >= 0)
        return requested > 0;
    std::string raw = envRaw(kEnvExpIsolate);
    return raw == "fork" || raw == "1" || raw == "on";
}

long
resolveTimeoutMs(long requested)
{
    if (requested >= 0)
        return requested;
    // The env knob is in whole seconds — campaigns time out on the
    // scale of stuck jobs, not scheduler jitter.
    int seconds = envInt(kEnvExpJobTimeout, 0);
    return seconds > 0 ? 1000L * seconds : 0;
}

int
resolveRetries(int requested)
{
    if (requested >= 0)
        return requested;
    int n = envInt(kEnvExpRetries, 0);
    return n > 0 ? n : 0;
}

// --- deterministic failure injection (tests/CI only) ------------------------

constexpr const char *kHookCrash = "__test_crash__";
constexpr const char *kHookHang = "__test_hang__";
constexpr const char *kHookFail = "__test_fail__";

bool
testHookEnabled()
{
    return envRaw(kEnvExpTestHook) == "1";
}

/** True when the scenario is a test-hook trigger (hook enabled). */
bool
testHookScenario(const Scenario &s)
{
    return testHookEnabled() &&
           (s.label == kHookCrash || s.label == kHookHang ||
            s.label == kHookFail);
}

/**
 * Fire the requested failure mode. Runs at the top of runScenario,
 * so in fork mode the crash/hang lands inside the isolation child —
 * exactly where a real segfault or livelock would.
 */
void
maybeTestHook(const Scenario &s)
{
    if (!testHookEnabled())
        return;
    if (s.label == kHookCrash)
        std::abort();
    if (s.label == kHookHang)
        for (;;)
            ::pause();
    if (s.label == kHookFail)
        fatal("test hook: synthetic failure");
}

// --- process isolation ------------------------------------------------------

/**
 * Run one scenario in a forked child; the result crosses back over a
 * pipe as one JSON document. Any child death — crash signal, abort,
 * nonzero exit, torn payload, watchdog kill — surfaces as FatalError
 * here, which the retry/policy layer in evalScenario then handles.
 *
 * Fork-safety contract: in isolate mode the parent's worker threads
 * never touch the TopologyCache (or any other process-wide lock the
 * child needs) between pool start and join, so the child's copied
 * lock state is always free. The child itself uses only raw write()
 * on its pipe end and exits with _exit() — no stdio, no atexit.
 */
SimResult
runScenarioIsolated(const Scenario &s, long timeoutMs)
{
    int fds[2];
    if (::pipe(fds) != 0)
        fatal("pipe failed: ", std::strerror(errno));

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        fatal("fork failed: ", std::strerror(errno));
    }

    if (pid == 0) {
        // Child: simulate, serialize, write, vanish.
        ::close(fds[0]);
        std::string payload;
        try {
            SimResult r = ExperimentRunner::runScenario(s);
            JsonValue doc = JsonValue::object();
            doc.set("ok", JsonValue::boolean(true));
            doc.set("sim", toJson(r));
            payload = doc.dump(-1);
        } catch (const std::exception &e) {
            JsonValue doc = JsonValue::object();
            doc.set("ok", JsonValue::boolean(false));
            doc.set("error", JsonValue::string(e.what()));
            payload = doc.dump(-1);
        }
        std::size_t off = 0;
        while (off < payload.size()) {
            ssize_t n = ::write(fds[1], payload.data() + off,
                                payload.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            off += static_cast<std::size_t>(n);
        }
        ::close(fds[1]);
        ::_exit(0);
    }

    // Parent: drain the pipe until EOF or the watchdog deadline.
    ::close(fds[1]);
    using Clock = std::chrono::steady_clock;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    std::string payload;
    bool timedOut = false;
    char buf[4096];
    for (;;) {
        int waitMs = -1;
        if (timeoutMs > 0) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
            if (left <= 0) {
                timedOut = true;
                break;
            }
            waitMs = static_cast<int>(std::min<long long>(left, 200));
        }
        struct pollfd p{};
        p.fd = fds[0];
        p.events = POLLIN;
        int pr = ::poll(&p, 1, waitMs);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pr == 0)
            continue; // re-check the deadline
        ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // EOF: child finished (or died) cleanly
        payload.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);

    if (timedOut)
        ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    if (timedOut)
        fatal("job timed out after ", timeoutMs, " ms (worker killed)");
    if (WIFSIGNALED(status))
        fatal("job crashed: worker killed by signal ",
              WTERMSIG(status));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fatal("job worker exited with status ",
              WIFEXITED(status) ? WEXITSTATUS(status) : -1);

    JsonValue doc;
    try {
        doc = JsonValue::parse(payload, "job result pipe");
    } catch (const FatalError &) {
        fatal("job crashed: torn result payload from worker");
    }
    const JsonValue *ok = doc.find("ok");
    if (ok && ok->isBool() && !ok->asBool("$.ok")) {
        const JsonValue *err = doc.find("error");
        fatal(err && err->isString() ? err->asString("$.error")
                                     : "job failed in worker");
    }
    const JsonValue *sim = doc.find("sim");
    if (!sim)
        fatal("job crashed: result payload missing 'sim'");
    return simResultFromJson(*sim, "$.sim");
}

/**
 * Build the traffic source a scenario asks for (synthetic,
 * closed-loop, or collective; trace workloads never reach here).
 * Shared by the serial, sharded, and batched execution paths so the
 * same Scenario always drives the same source in every mode.
 */
TrafficSource
makeScenarioSource(const Scenario &s, const NocTopology &topo)
{
    switch (s.traffic.kind) {
      case TrafficSpec::Kind::ClosedLoop: {
        auto pattern = std::shared_ptr<TrafficPattern>(
            makeTrafficPattern(s.traffic.pattern, topo));
        return makeClosedLoopSource(std::move(pattern),
                                    s.traffic.closedLoop, s.seed)
            .source;
      }
      case TrafficSpec::Kind::Collective:
        return makeCollectiveSource(s.traffic.collective).source;
      case TrafficSpec::Kind::Workload:
        SNOC_PANIC("trace workloads have no TrafficSource");
      case TrafficSpec::Kind::Synthetic:
        break;
    }
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(s.traffic.pattern, topo));
    SyntheticConfig sc;
    sc.load = s.load;
    sc.packetSizeFlits = s.traffic.packetSizeFlits;
    sc.seed = s.seed;
    return makeSyntheticSource(std::move(pattern), sc);
}

/** Attach energy metrics to every point of every job result. */
void
applyEnergyMetrics(std::vector<JobResult> &results)
{
    // Failed rows carry no measurement (and their scenario may be
    // the very thing that cannot build a topology) — skip them.
    for (JobResult &job : results)
        for (ScenarioResult &point : job.points)
            if (point.ok)
                point.energy =
                    evaluateEnergy(point.scenario, point.sim);
}

} // namespace

EnergyMetrics
evaluateEnergy(const Scenario &s, const SimResult &r)
{
    EnergyMetrics m;
    if (!s.energy.enabled)
        return m;
    const NocTopology &topo =
        TopologyCache::instance().get(s.topology);
    PowerModel pm(topo, RouterConfig::named(s.routerConfig),
                  techCornerByName(s.energy.tech),
                  s.link.hopsPerCycle, s.energy.flitBits);
    m.valid = true;
    m.dynamicW = pm.dynamicPower(r.counters, r.cyclesRun).total();
    m.staticW = pm.staticPower().total();
    m.totalW = m.staticW + m.dynamicW;
    m.flitsPerJoule = pm.throughputPerPower(r.counters, r.cyclesRun);
    m.edpJs =
        pm.energyDelay(r.counters, r.cyclesRun, r.avgPacketLatency);
    return m;
}

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : threads_(resolveThreads(opts.threads)),
      batchLanes_(resolveBatchLanes(opts.batchLanes)),
      simShards_(resolveSimShards(opts.simShards)),
      isolate_(resolveIsolate(opts.isolate)),
      timeoutMs_(resolveTimeoutMs(opts.jobTimeoutMs)),
      retries_(resolveRetries(opts.retries)),
      opts_(std::move(opts))
{
    // A watchdog can only ever kill a process, not a thread.
    if (timeoutMs_ > 0)
        isolate_ = true;
    // Isolation children evaluate one scenario each, serially.
    if (isolate_)
        batchLanes_ = 0;
    // Sharding (one big simulation across threads) and lane batching
    // (many small simulations on one thread) pull the execution in
    // opposite directions; shards win when both are requested.
    if (simShards_ >= 2)
        batchLanes_ = 0;
}

SimResult
ExperimentRunner::runScenario(const Scenario &s)
{
    return runScenario(s, 1);
}

SimResult
ExperimentRunner::runScenario(const Scenario &s, int simShards)
{
    maybeTestHook(s);
    const NocTopology &topo = TopologyCache::instance().get(s.topology);
    RouterConfig rc = RouterConfig::named(s.routerConfig);
    Network net(topo, rc, s.link, s.routing, s.routingSeed, s.faults);

    if (s.traffic.kind == TrafficSpec::Kind::Workload) {
        // Workload runs derive their windows inside runWorkload
        // rather than from s.sim; they always take the serial path.
        const WorkloadProfile &w = workloadByName(s.traffic.workload);
        return runWorkload(net, w, s.traffic.workloadCycles, s.seed);
    }

    TrafficSource source = makeScenarioSource(s, topo);
    if (simShards >= 2 && topo.numRouters() >= 2) {
        ShardedNetwork sn(net, simShards);
        return runShardedSimulation(sn, std::move(source), s.sim);
    }
    return runSimulation(net, std::move(source), s.sim);
}

/**
 * Evaluate one scenario through the full crash-safe pipeline:
 * consult the result store, then attempt the simulation (in-process
 * or in a forked child) with bounded retries and exponential
 * backoff. Under FailurePolicy::Abort the final failure rethrows —
 * the pre-existing exception contract; under Record it comes back as
 * an ok=false row. `stats` accumulates the owning job's bookkeeping.
 */
ScenarioResult
ExperimentRunner::evalScenario(const Scenario &s,
                               JobResult &stats) const
{
    ScenarioResult out;
    out.scenario = s;

    std::string key;
    if (opts_.store) {
        key = resultKey(s);
        if (std::optional<SimResult> hit = opts_.store->lookup(key)) {
            ++stats.cacheHits;
            out.sim = *hit;
            return out;
        }
    }
    ++stats.cacheMisses;

    int attempts = 1 + retries_;
    std::string lastError;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            ++stats.retries;
            long ms = std::min(100L << (attempt - 1), 2000L);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(ms));
        }
        try {
            out.sim = isolate_ ? runScenarioIsolated(s, timeoutMs_)
                               : runScenario(s, simShards_);
            if (opts_.store)
                opts_.store->put(key, s, out.sim);
            return out;
        } catch (const std::exception &e) {
            lastError = e.what();
            if (attempt + 1 == attempts &&
                opts_.onFailure == FailurePolicy::Abort)
                throw;
        }
    }

    out.ok = false;
    out.error = lastError;
    out.sim = SimResult{};
    return out;
}

JobResult
ExperimentRunner::runJob(const Job &job) const
{
    JobResult out;
    out.kind = job.kind;
    auto t0 = std::chrono::steady_clock::now();

    // Thrown when a Record-policy point failure must stop the job's
    // strategy (the failed row is already recorded by then).
    struct PointFailed
    {
    };

    // Every point of a sweep/search reuses the base Scenario with
    // only the swept axis replaced (offered load, or the closed-loop
    // axis via applySweepValue), so point results match what a
    // Single job at that value would produce. Points are recorded
    // the moment they are evaluated — runLoadSweep/findSaturation
    // push probes in evaluation order, so the rows are identical to
    // the historical record-after-the-fact form, and a job that dies
    // mid-sweep keeps its completed prefix.
    auto evalInto = [this, &out](const Scenario &s)
        -> const ScenarioResult & {
        out.points.push_back(evalScenario(s, out));
        return out.points.back();
    };
    auto evalAt = [&](double load) -> SimResult {
        Scenario point = job.scenario;
        applySweepValue(point, load);
        const ScenarioResult &r = evalInto(point);
        if (!r.ok)
            throw PointFailed{};
        return r.sim;
    };

    try {
        switch (job.kind) {
        case Job::Kind::Single:
            evalInto(job.scenario);
            break;
        case Job::Kind::Sweep:
            if (!job.stopAtSaturation) {
                // Every load runs unconditionally, so one failed
                // point need not end the job: later loads still run
                // and record their own rows.
                for (double load : job.loads) {
                    Scenario point = job.scenario;
                    applySweepValue(point, load);
                    evalInto(point);
                }
            } else {
                runLoadSweep(evalAt, job.loads, job.stopAtSaturation,
                             job.saturationFactor);
            }
            break;
        case Job::Kind::Saturation: {
            SaturationResult sat =
                findSaturation(evalAt, job.saturation);
            out.saturationLoad = sat.saturationLoad;
            out.bestThroughput = sat.bestThroughput;
            break;
        }
        }
    } catch (const PointFailed &) {
        // A stopping sweep / saturation search cannot continue past
        // a failed probe; the row itself is already in out.points.
    }

    for (const ScenarioResult &p : out.points) {
        if (!p.ok) {
            out.status = JobStatus::Failed;
            out.error = p.error;
            break;
        }
    }
    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return out;
}

// --- batched execution ------------------------------------------------------

namespace {

/** One batchable evaluation point: (job, point slot, scenario). */
struct BatchUnit
{
    std::size_t job = 0;
    std::size_t point = 0;
    Scenario scenario;
};

/**
 * A job is batchable when its evaluation points are known up front
 * and independent: Single jobs, and Sweeps that evaluate every load
 * unconditionally. Saturation searches pick each probe from the
 * previous result, stop-at-saturation sweeps abort mid-grid, and
 * workload (trace) traffic derives its warmup / measure / drain
 * windows inside runWorkload from workloadCycles rather than taking
 * them from Scenario::sim — those keep the sequential path.
 */
bool
batchableJob(const Job &job)
{
    if (job.scenario.traffic.kind == TrafficSpec::Kind::Workload)
        return false;
    switch (job.kind) {
    case Job::Kind::Single:
        return true;
    case Job::Kind::Sweep:
        return !job.stopAtSaturation && !job.loads.empty();
    case Job::Kind::Saturation:
        return false;
    }
    return false;
}

/** Scenarios may share a BatchedNetwork iff they build identical
 *  immutable structure: same topology, router microarchitecture,
 *  link config, and routing mode. (Seeds, loads, patterns, fault
 *  plans, and sim windows are per-lane state.) */
std::string
batchKey(const Scenario &s)
{
    std::string k = s.topology;
    k += '\x1f';
    k += s.routerConfig;
    k += '\x1f';
    k += std::to_string(s.link.hopsPerCycle);
    k += '\x1f';
    k += std::to_string(static_cast<int>(s.routing));
    return k;
}

/** Run one chunk of same-structure units as BatchedNetwork lanes. */
void
runBatchChunk(const std::vector<const BatchUnit *> &chunk,
              std::vector<JobResult> &results)
{
    const Scenario &s0 = chunk.front()->scenario;
    auto topo = TopologyCache::instance().getShared(s0.topology);
    RouterConfig rc = RouterConfig::named(s0.routerConfig);

    std::vector<BatchedNetwork::LaneSpec> specs;
    specs.reserve(chunk.size());
    for (const BatchUnit *u : chunk)
        specs.push_back({u->scenario.routingSeed, u->scenario.faults});
    BatchedNetwork bn(topo, rc, s0.link, s0.routing, specs);

    std::vector<BatchLaneSim> lanes;
    lanes.reserve(chunk.size());
    for (const BatchUnit *u : chunk)
        lanes.push_back(
            {makeScenarioSource(u->scenario, *topo), u->scenario.sim});

    std::vector<SimResult> res = runBatchedSimulation(bn, lanes);
    for (std::size_t l = 0; l < chunk.size(); ++l) {
        const BatchUnit &u = *chunk[l];
        results[u.job].points[u.point] = {u.scenario, res[l]};
    }
}

} // namespace

void
ExperimentRunner::runBatched(const ExperimentPlan &plan,
                             const std::vector<bool> &done,
                             std::vector<JobResult> &results) const
{
    std::size_t total = plan.jobs.size();

    // Classify jobs and expand batchable ones into evaluation points
    // with pre-sized result slots (a non-stopping sweep evaluates
    // every load, so the point count is known here). Jobs already
    // completed by a resumed journal are skipped outright; points
    // present in the result store fill their slot here and never
    // become units. Test-hook scenarios take the fallback path so
    // injected failures flow through the same retry/policy pipeline
    // as unbatched execution.
    std::vector<BatchUnit> units;
    std::vector<std::size_t> fallbackJobs;
    std::vector<std::size_t> cachedJobs; //!< fully served by store
    std::vector<std::size_t> remaining(total, 0);
    auto tryCache = [this](const Scenario &s, JobResult &job,
                           ScenarioResult &slot) {
        if (!opts_.store)
            return false;
        if (std::optional<SimResult> hit =
                opts_.store->lookup(resultKey(s))) {
            ++job.cacheHits;
            slot = {s, *hit};
            return true;
        }
        ++job.cacheMisses;
        return false;
    };
    for (std::size_t i = 0; i < total; ++i) {
        if (done[i])
            continue;
        const Job &job = plan.jobs[i];
        if (!batchableJob(job) || testHookScenario(job.scenario)) {
            fallbackJobs.push_back(i);
            remaining[i] = 1;
            continue;
        }
        results[i].kind = job.kind;
        if (job.kind == Job::Kind::Single) {
            results[i].points.resize(1);
            if (!tryCache(job.scenario, results[i],
                          results[i].points[0])) {
                units.push_back({i, 0, job.scenario});
                remaining[i] = 1;
            }
        } else {
            results[i].points.resize(job.loads.size());
            for (std::size_t k = 0; k < job.loads.size(); ++k) {
                Scenario s = job.scenario;
                applySweepValue(s, job.loads[k]);
                if (tryCache(s, results[i], results[i].points[k]))
                    continue;
                units.push_back({i, k, std::move(s)});
                ++remaining[i];
            }
        }
        if (remaining[i] == 0)
            cachedJobs.push_back(i);
    }

    // Group compatible units (std::map: deterministic group order),
    // then cut each group into lane-capped chunks. Units stay in
    // plan order within a group; chunk composition is therefore a
    // pure function of the plan, independent of thread count —
    // and lane membership cannot change a result anyway (the
    // determinism contract batch_test enforces).
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t u = 0; u < units.size(); ++u)
        groups[batchKey(units[u].scenario)].push_back(u);

    struct Task
    {
        std::vector<const BatchUnit *> chunk; //!< empty => fallback
        std::size_t fallbackJob = 0;
    };
    std::vector<Task> tasks;
    std::size_t cap = static_cast<std::size_t>(batchLanes_);
    for (const auto &[key, g] : groups) {
        for (std::size_t off = 0; off < g.size(); off += cap) {
            Task t;
            std::size_t end = std::min(g.size(), off + cap);
            for (std::size_t u = off; u < end; ++u)
                t.chunk.push_back(&units[g[u]]);
            tasks.push_back(std::move(t));
        }
    }
    for (std::size_t j : fallbackJobs)
        tasks.push_back(Task{{}, j});

    // Progress fires when a job's last evaluation point lands, so
    // callers still see (jobs done, jobs total) exactly `total`
    // times, batched or not; jobDone fires at the same moment, after
    // the job's status is finalized from its rows.
    std::mutex reportMutex;
    std::size_t jobsDone = 0;
    for (std::size_t i = 0; i < total; ++i)
        if (done[i])
            ++jobsDone; // resumed jobs count as already finished
    auto finishJob = [&](std::size_t job) {
        // Called under reportMutex, once the job's last unit landed.
        for (const ScenarioResult &p : results[job].points) {
            if (!p.ok) {
                results[job].status = JobStatus::Failed;
                results[job].error = p.error;
                break;
            }
        }
        if (opts_.jobDone)
            opts_.jobDone(job, results[job]);
        if (opts_.progress)
            opts_.progress(++jobsDone, total);
    };
    auto noteUnitsDone = [&](const Task &t, double chunkMs) {
        std::lock_guard<std::mutex> lock(reportMutex);
        auto noteJob = [&](std::size_t job, double shareMs) {
            results[job].wallMs += shareMs;
            if (--remaining[job] == 0)
                finishJob(job);
        };
        if (t.chunk.empty()) {
            // runJob measured its own wall time already.
            noteJob(t.fallbackJob, 0.0);
        } else {
            // Lanes share one cycle loop; attribute the chunk's wall
            // time evenly across its units.
            double share = chunkMs / static_cast<double>(
                                         t.chunk.size());
            for (const BatchUnit *u : t.chunk)
                noteJob(u->job, share);
        }
    };

    // Jobs fully served by the store complete before the pool even
    // starts, in plan order.
    for (std::size_t job : cachedJobs) {
        std::lock_guard<std::mutex> lock(reportMutex);
        finishJob(job);
    }

    auto runTask = [&](const Task &t) {
        if (t.chunk.empty()) {
            results[t.fallbackJob] = runJob(plan.jobs[t.fallbackJob]);
            noteUnitsDone(t, 0.0);
            return;
        }
        auto c0 = std::chrono::steady_clock::now();
        try {
            if (t.chunk.size() == 1) {
                // One lane amortizes nothing; take the plain path.
                const BatchUnit *u = t.chunk[0];
                SimResult r = runScenario(u->scenario);
                results[u->job].points[u->point] = {u->scenario, r};
                if (opts_.store)
                    opts_.store->put(resultKey(u->scenario),
                                     u->scenario, r);
            } else {
                runBatchChunk(t.chunk, results);
                if (opts_.store)
                    for (const BatchUnit *u : t.chunk)
                        opts_.store->put(
                            resultKey(u->scenario), u->scenario,
                            results[u->job].points[u->point].sim);
            }
        } catch (const std::exception &e) {
            if (opts_.onFailure == FailurePolicy::Abort)
                throw;
            // One bad lane spec poisons its whole chunk (they share
            // a network build); every affected slot becomes a failed
            // row and the campaign keeps going.
            for (const BatchUnit *u : t.chunk) {
                ScenarioResult fail;
                fail.scenario = u->scenario;
                fail.ok = false;
                fail.error = e.what();
                results[u->job].points[u->point] = std::move(fail);
            }
        }
        double chunkMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - c0)
                             .count();
        noteUnitsDone(t, chunkMs);
    };

    int workers =
        std::min<int>(threads_, static_cast<int>(tasks.size()));
    if (workers <= 1) {
        for (const Task &t : tasks)
            runTask(t);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex errorMutex;
    std::exception_ptr firstError;
    auto worker = [&]() {
        while (!failed.load(std::memory_order_relaxed)) {
            std::size_t i = next.fetch_add(1);
            if (i >= tasks.size())
                return;
            try {
                runTask(tasks[i]);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

std::vector<JobResult>
ExperimentRunner::run(const ExperimentPlan &plan) const
{
    std::size_t total = plan.jobs.size();
    std::vector<JobResult> results(total);
    if (total == 0)
        return results;

    // Resume: journaled jobs are spliced in verbatim and never
    // re-executed. Their rows are bitwise what a fresh run would
    // have produced (exact-double round trip), and their energy is
    // re-derived below along with everyone else's, so resumed output
    // is byte-identical to an uninterrupted run.
    std::vector<bool> completed(total, false);
    std::size_t resumed = 0;
    if (opts_.completed) {
        for (const auto &[idx, r] : *opts_.completed) {
            if (idx < total) {
                results[idx] = r;
                completed[idx] = true;
                ++resumed;
            }
        }
    }

    if (batchLanes_ >= 2) {
        runBatched(plan, completed, results);
        // Energy is evaluated after execution, from the already-
        // assembled results: a pure function of (scenario, sim), so
        // the metrics cannot differ between execution modes.
        applyEnergyMetrics(results);
        return results;
    }

    std::vector<std::size_t> pending;
    pending.reserve(total - resumed);
    for (std::size_t i = 0; i < total; ++i)
        if (!completed[i])
            pending.push_back(i);

    std::mutex reportMutex;
    std::size_t jobsDone = resumed;
    auto finishJob = [&](std::size_t idx, bool ranToCompletion) {
        std::lock_guard<std::mutex> lock(reportMutex);
        if (ranToCompletion && opts_.jobDone)
            opts_.jobDone(idx, results[idx]);
        if (opts_.progress)
            opts_.progress(++jobsDone, total);
    };

    // Shard-aware planning: each sharded job claims simShards_
    // threads of its own, so the job-level pool shrinks to keep the
    // total at ~threads_.
    int workers =
        std::min<int>(std::max(1, threads_ / simShards_),
                      static_cast<int>(pending.size()));

    if (workers <= 1) {
        for (std::size_t idx : pending) {
            results[idx] = runJob(plan.jobs[idx]);
            finishJob(idx, true);
        }
        applyEnergyMetrics(results);
        return results;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;

    auto worker = [&]() {
        // Stop dispatching new jobs once any job has failed (jobs
        // already in flight finish), mirroring the serial path's
        // abort-at-first-error semantics. Under FailurePolicy::Record
        // runJob absorbs evaluation failures into failed rows, so
        // this trips only on genuinely unexpected errors.
        while (!failed.load(std::memory_order_relaxed)) {
            std::size_t slot = next.fetch_add(1);
            if (slot >= pending.size())
                return;
            std::size_t idx = pending[slot];
            bool ok = false;
            try {
                results[idx] = runJob(plan.jobs[idx]);
                ok = true;
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(reportMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
            finishJob(idx, ok);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    if (firstError)
        std::rethrow_exception(firstError);
    applyEnergyMetrics(results);
    return results;
}

} // namespace snoc
