/**
 * @file
 * Outside-in layer tracer for the end-to-end benchmark (bench/e2e).
 *
 * Replays a plan the way `snoc run --threads N` executes it — same
 * worker count, same engine per point (batched chunks, sharded or
 * serial simulations, saturation searches), same result store and
 * journal traffic — but calls the engine's public layers directly so
 * every layer boundary can be timed from outside: parsePlan,
 * TopologyCache, the Network / BatchedNetwork / ShardedNetwork
 * constructors, the run*Simulation drivers with each TrafficSource
 * wrapped in a timer, generateTrace, evaluateEnergy, ResultStore,
 * ResultJournal and renderPlanReport. No simulator code is changed.
 *
 * Spans live in memory: one per evaluated point (or batch chunk),
 * with its phase spans below it; every span has a parent id and all
 * spans of a point share the point's id. Per-cycle source calls are
 * aggregated onto their `sim.drive` span instead of being spans of
 * their own. At exit the spans are written as a Chrome trace-event
 * file and summed into per-layer totals.
 *
 * The replay re-renders its results through renderPlanReport and
 * JsonSink; the benchmark checks those bytes against the CLI's
 * output, which proves both measured the same program.
 *
 *   e2e_trace_driver setup <plan.json> <seconds>
 *   e2e_trace_driver replay <plan.json> <out-dir> --threads N
 *                    [--store DIR] [--passes N]
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "exp/journal.hh"
#include "exp/plan_io.hh"
#include "exp/report.hh"
#include "exp/result_store.hh"
#include "exp/runner.hh"
#include "exp/serialize.hh"
#include "exp/strategies.hh"
#include "sim/batch.hh"
#include "sim/router_config.hh"
#include "sim/shard.hh"
#include "topo/topology_cache.hh"
#include "trace/trace.hh"
#include "traffic/synthetic.hh"
#include "workload/closed_loop.hh"
#include "workload/collective.hh"

using namespace snoc;

namespace {

using Clock = std::chrono::steady_clock;

/** Source layers whose per-cycle calls are timed separately. */
enum SourceLayer
{
    kTraffic,  //!< traffic/: synthetic Bernoulli sources
    kWorkload, //!< workload/: closed-loop and collective sources
    kTrace,    //!< trace/: trace replay
    kSourceLayers
};

const char *const kSourceMake[kSourceLayers] = {"traffic.make",
                                                "workload.make",
                                                "trace.gen"};

/** What one run*Simulation call did, read from outside. */
struct DriveStats
{
    std::array<std::int64_t, kSourceLayers> sourceNs{};
    std::array<std::uint64_t, kSourceLayers> sourceCalls{};
    double activeRouters = 0; //!< summed over source calls
    double routerSlots = 0;   //!< routers summed over source calls
    double routerCycles = 0;  //!< routers x cycles stepped, per lane
    double flitHops = 0;
    double drainCycles = 0;
    // Where the active-router count comes from while the run lasts
    // (at most one is set).
    const BatchedNetwork *batch = nullptr;
    const ShardedNetwork *shards = nullptr;
    Cycle lastBatchCycle = ~Cycle{0};
};

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t point = 0;
    std::string_view name; //!< always a string literal
    std::int64_t t0 = 0;   //!< ns since the tracer epoch
    std::int64_t t1 = 0;
    int tid = 0;
    DriveStats drive; //!< filled on sim.drive spans only
};

/**
 * In-memory span store. Each thread appends to its own buffer without
 * a lock (a deque, so growth never moves recorded spans), so
 * recording cannot make one worker wait for another.
 */
class Tracer
{
  public:
    std::uint64_t newId() { return next_.fetch_add(1); }

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    void
    record(Span s)
    {
        Buffer &b = local();
        s.tid = b.tid;
        b.spans.push_back(s);
    }

    /** Every recorded span; call once all worker threads joined. */
    std::vector<Span>
    collect() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Span> all;
        for (const auto &b : buffers_)
            all.insert(all.end(), b->spans.begin(), b->spans.end());
        return all;
    }

  private:
    struct Buffer
    {
        int tid = 0;
        std::deque<Span> spans;
    };

    Buffer &
    local()
    {
        thread_local Buffer *buffer = nullptr;
        if (!buffer) {
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::make_unique<Buffer>());
            buffer = buffers_.back().get();
            buffer->tid = static_cast<int>(buffers_.size()) - 1;
        }
        return *buffer;
    }

    Clock::time_point epoch_ = Clock::now();
    std::atomic<std::uint64_t> next_{1};
    mutable std::mutex mutex_; //!< guards buffers_ (not their spans)
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer tracer;

/** Records one span from construction to destruction. */
class SpanScope
{
  public:
    /** A child of `parent`, belonging to parent's point. */
    SpanScope(const char *name, const SpanScope &parent)
        : SpanScope(name, parent.span_.id, parent.span_.point)
    {
    }

    /** A root span, or one that starts a new point under `parent`. */
    explicit SpanScope(const char *name,
                       const SpanScope *parent = nullptr)
        : SpanScope(name, parent ? parent->span_.id : 0, 0)
    {
        span_.point = span_.id;
    }

    ~SpanScope()
    {
        span_.t1 = tracer.now();
        tracer.record(span_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    DriveStats &drive() { return span_.drive; }

  private:
    SpanScope(const char *name, std::uint64_t parent,
              std::uint64_t point)
    {
        span_.id = tracer.newId();
        span_.parent = parent;
        span_.point = point;
        span_.name = name;
        span_.t0 = tracer.now();
    }

    Span span_;
};

template <typename F>
auto
timed(const char *name, const SpanScope &parent, F &&fn)
{
    SpanScope s(name, parent);
    return fn();
}

/** Wrap a source so each per-cycle call is timed and counted. */
TrafficSource
timedSource(TrafficSource inner, SourceLayer layer, DriveStats &st)
{
    return [inner = std::move(inner), layer, &st](Network &net,
                                                  Cycle now) {
        auto t0 = Clock::now();
        bool alive = inner(net, now);
        st.sourceNs[layer] +=
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count();
        ++st.sourceCalls[layer];
        // Activity of the step before this call.
        st.routerSlots += net.topology().numRouters();
        if (st.shards) {
            st.activeRouters += static_cast<double>(
                st.shards->lastActiveRouters());
        } else if (st.batch) {
            // lastVisited() counts every lane of the last step, so
            // take it once per cycle, at that cycle's first lane call.
            if (now != st.lastBatchCycle) {
                st.lastBatchCycle = now;
                st.activeRouters +=
                    static_cast<double>(st.batch->lastVisited());
            }
        } else {
            st.activeRouters +=
                static_cast<double>(net.lastActiveRouters());
        }
        return alive;
    };
}

/** Fold what a network did over a run into its drive stats. */
void
noteNetwork(DriveStats &st, const Network &net, Cycle windows)
{
    double cycles = static_cast<double>(net.now());
    st.routerCycles += cycles * net.topology().numRouters();
    st.flitHops += static_cast<double>(net.counters().linkFlitHops);
    st.drainCycles += std::max(0.0, cycles - static_cast<double>(windows));
}

SourceLayer
sourceLayerOf(const Scenario &s)
{
    switch (s.traffic.kind) {
      case TrafficSpec::Kind::ClosedLoop:
      case TrafficSpec::Kind::Collective:
        return kWorkload;
      case TrafficSpec::Kind::Workload:
        return kTrace;
      case TrafficSpec::Kind::Synthetic:
        break;
    }
    return kTraffic;
}

/** The source a non-trace scenario asks for, as the runner builds it. */
TrafficSource
makeSource(const Scenario &s, const NocTopology &topo)
{
    if (s.traffic.kind == TrafficSpec::Kind::Collective)
        return makeCollectiveSource(s.traffic.collective).source;
    auto pattern = std::shared_ptr<TrafficPattern>(
        makeTrafficPattern(s.traffic.pattern, topo));
    if (s.traffic.kind == TrafficSpec::Kind::ClosedLoop)
        return makeClosedLoopSource(std::move(pattern),
                                    s.traffic.closedLoop, s.seed)
            .source;
    SyntheticConfig sc;
    sc.load = s.load;
    sc.packetSizeFlits = s.traffic.packetSizeFlits;
    sc.seed = s.seed;
    return makeSyntheticSource(std::move(pattern), sc);
}

/** Batched lanes share a network iff these match (runner's rule). */
std::string
batchKey(const Scenario &s)
{
    return s.topology + '\x1f' + s.routerConfig + '\x1f' +
           std::to_string(s.link.hopsPerCycle) + '\x1f' +
           std::to_string(static_cast<int>(s.routing));
}

bool
batchable(const Job &job)
{
    if (job.scenario.traffic.kind == TrafficSpec::Kind::Workload)
        return false;
    if (job.kind == Job::Kind::Single)
        return true;
    return job.kind == Job::Kind::Sweep && !job.stopAtSaturation &&
           !job.loads.empty();
}

template <typename Task>
void
runPool(int workers, std::size_t tasks, const Task &task)
{
    if (workers <= 1) {
        for (std::size_t i = 0; i < tasks; ++i)
            task(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr firstError;
    {
        std::vector<std::jthread> pool; // joins on scope exit
        for (int w = 0; w < workers; ++w)
            pool.emplace_back([&]() {
                for (std::size_t i; (i = next.fetch_add(1)) < tasks;) {
                    try {
                        task(i);
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(errorMutex);
                        if (!firstError)
                            firstError = std::current_exception();
                        next.store(tasks);
                    }
                }
            });
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

ScenarioResult
pointRow(const Scenario &s, const SimResult &sim)
{
    ScenarioResult r;
    r.scenario = s;
    r.sim = sim;
    return r;
}

double
elapsedMs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One pass over a plan: parse, execute, journal, render. */
class PlanPass
{
  public:
    PlanPass(int threads, int lanes, int shards, ResultStore *store,
             std::string journalPath)
        : threads_(threads), lanes_(lanes), shards_(shards),
          store_(store), journalPath_(std::move(journalPath))
    {
    }

    /** Returns the JSON sink bytes `snoc run -f json` would print. */
    std::string
    run(const std::string &planPath)
    {
        SpanScope pass("pass");
        // Each `snoc run` is a fresh process with an empty cache.
        TopologyCache::instance().clear();
        plan_ = timed("exp.parse", pass, [&] {
            return parsePlan(readTextFile(planPath), planPath);
        });
        ResultJournal::remove(journalPath_);
        journal_ = std::make_unique<ResultJournal>(journalPath_,
                                                   planHash(plan_));
        results_.assign(plan_.jobs.size(), JobResult{});

        if (lanes_ >= 2)
            runBatched(pass);
        else
            runUnbatched(pass);

        timed("power.eval", pass, [&] {
            for (JobResult &job : results_)
                for (ScenarioResult &p : job.points)
                    if (p.ok)
                        p.energy = evaluateEnergy(p.scenario, p.sim);
            return 0;
        });
        journal_.reset();
        ResultJournal::remove(journalPath_);

        std::ostringstream out;
        timed("exp.render", pass, [&] {
            JsonSink sink(out);
            renderPlanReport(plan_, results_, sink);
            sink.finish();
            return 0;
        });
        for (const JobResult &job : results_)
            points_ += job.points.size();
        std::set<std::string> topologies;
        for (const Job &job : plan_.jobs)
            if (topologies.insert(job.scenario.topology).second)
                routers_ += TopologyCache::instance()
                                .get(job.scenario.topology)
                                .numRouters();
        return out.str();
    }

    std::size_t points() const { return points_; }

    /** Routers of the distinct topologies this pass built. */
    double routers() const { return routers_; }

  private:
    struct Unit
    {
        std::size_t job = 0;
        std::size_t point = 0;
        Scenario scenario;
    };

    int threads_;
    int lanes_;
    int shards_;
    ResultStore *store_;
    std::string journalPath_;
    std::unique_ptr<ResultJournal> journal_;
    ExperimentPlan plan_;
    std::vector<JobResult> results_;
    std::size_t points_ = 0;
    double routers_ = 0;
    std::mutex reportMutex_; //!< guards remaining_ and journal order
    std::vector<std::size_t> remaining_;

    std::optional<SimResult>
    lookup(const Scenario &s, const SpanScope &parent)
    {
        if (!store_)
            return std::nullopt;
        return timed("exp.store.lookup", parent,
                     [&] { return store_->lookup(resultKey(s)); });
    }

    void
    put(const Scenario &s, const SimResult &r, const SpanScope &parent)
    {
        if (store_)
            timed("exp.store.put", parent, [&] {
                store_->put(resultKey(s), s, r);
                return 0;
            });
    }

    /**
     * The runner serializes job completion (and so the journal) under
     * one lock; time spent waiting for it is the exp layer's queueing.
     */
    std::unique_lock<std::mutex>
    lockReport(const SpanScope &parent)
    {
        SpanScope wait("exp.report.wait", parent);
        return std::unique_lock<std::mutex>(reportMutex_);
    }

    /** A job's last point landed (caller holds reportMutex_). */
    void
    finishJob(std::size_t job, const SpanScope &parent)
    {
        JobResult &r = results_[job];
        for (const ScenarioResult &p : r.points)
            if (!p.ok)
                r.status = JobStatus::Failed;
        if (r.status == JobStatus::Ok)
            timed("exp.journal.append", parent, [&] {
                journal_->append(job, r);
                return 0;
            });
    }

    /** runScenario(s, shards), one layer span per phase. */
    SimResult
    simulate(const Scenario &s, int shards, const SpanScope &point)
    {
        const NocTopology &topo = *timed("topo.get", point, [&] {
            return &TopologyCache::instance().get(s.topology);
        });
        RouterConfig rc = RouterConfig::named(s.routerConfig);
        auto net = timed("sim.net_build", point, [&] {
            return std::make_unique<Network>(topo, rc, s.link, s.routing,
                                             s.routingSeed, s.faults);
        });

        SourceLayer layer = sourceLayerOf(s);
        SimConfig cfg = s.sim;
        TrafficSource source = timed(kSourceMake[layer], point, [&] {
            if (layer != kTrace)
                return makeSource(s, topo);
            // runWorkload's replay, step by step.
            const WorkloadProfile &w = workloadByName(s.traffic.workload);
            cfg.warmupCycles = s.traffic.workloadCycles / 10;
            cfg.measureCycles = s.traffic.workloadCycles;
            cfg.drain = true;
            return makeTraceSource(generateTrace(
                w, net->topology(), s.traffic.workloadCycles, s.seed));
        });

        std::unique_ptr<ShardedNetwork> sharded;
        if (layer != kTrace && shards >= 2 && topo.numRouters() >= 2)
            sharded = timed("graph.partition", point, [&] {
                return std::make_unique<ShardedNetwork>(*net, shards);
            });

        SimResult r;
        {
            SpanScope drive("sim.drive", point);
            DriveStats &st = drive.drive();
            st.shards = sharded.get();
            TrafficSource wrapped =
                timedSource(std::move(source), layer, st);
            r = sharded ? runShardedSimulation(*sharded, wrapped, cfg)
                        : runSimulation(*net, wrapped, cfg);
            st.shards = nullptr;
            sharded.reset(); // joins the shard workers inside the span
            noteNetwork(st, *net, cfg.warmupCycles + cfg.measureCycles);
        }
        timed("sim.net_free", point, [&] {
            net.reset();
            return 0;
        });
        return r;
    }

    /** The runner's evalScenario: store, then simulate, then store. */
    ScenarioResult
    evalPoint(const Scenario &s, JobResult &stats, const SpanScope &job)
    {
        SpanScope point("point", &job);
        ScenarioResult out;
        out.scenario = s;
        if (std::optional<SimResult> hit = lookup(s, point)) {
            ++stats.cacheHits;
            out.sim = *hit;
            return out;
        }
        ++stats.cacheMisses;
        out.sim = simulate(s, shards_, point);
        put(s, out.sim, point);
        return out;
    }

    /** The runner's runJob (Abort policy: the benchmark never fails). */
    JobResult
    runJob(const Job &job, const SpanScope &span)
    {
        JobResult out;
        out.kind = job.kind;
        auto t0 = Clock::now();
        auto evalAt = [&](double x) {
            Scenario s = job.scenario;
            applySweepValue(s, x);
            out.points.push_back(evalPoint(s, out, span));
            return out.points.back().sim;
        };
        switch (job.kind) {
          case Job::Kind::Single:
            out.points.push_back(evalPoint(job.scenario, out, span));
            break;
          case Job::Kind::Sweep:
            if (job.stopAtSaturation)
                runLoadSweep(evalAt, job.loads, true,
                             job.saturationFactor);
            else
                for (double x : job.loads)
                    evalAt(x);
            break;
          case Job::Kind::Saturation: {
            SaturationResult sat = findSaturation(evalAt, job.saturation);
            out.saturationLoad = sat.saturationLoad;
            out.bestThroughput = sat.bestThroughput;
            break;
          }
        }
        out.wallMs = elapsedMs(t0);
        return out;
    }

    void
    runUnbatched(const SpanScope &pass)
    {
        int workers = std::min<int>(std::max(1, threads_ / shards_),
                                    static_cast<int>(plan_.jobs.size()));
        runPool(workers, plan_.jobs.size(), [&](std::size_t i) {
            SpanScope job("job", &pass);
            results_[i] = runJob(plan_.jobs[i], job);
            auto lock = lockReport(job);
            finishJob(i, job);
        });
    }

    /** BatchedNetwork lanes over one chunk (runner's runBatchChunk). */
    void
    runChunk(const std::vector<const Unit *> &chunk,
             const SpanScope &batch)
    {
        const Scenario &s0 = chunk.front()->scenario;
        auto topo = timed("topo.get", batch, [&] {
            return TopologyCache::instance().getShared(s0.topology);
        });
        RouterConfig rc = RouterConfig::named(s0.routerConfig);
        std::vector<BatchedNetwork::LaneSpec> specs;
        for (const Unit *u : chunk)
            specs.push_back({u->scenario.routingSeed, u->scenario.faults});
        auto bn = timed("sim.net_build", batch, [&] {
            return std::make_unique<BatchedNetwork>(topo, rc, s0.link,
                                                    s0.routing, specs);
        });

        std::vector<std::pair<TrafficSource, SourceLayer>> sources;
        for (const Unit *u : chunk) {
            SourceLayer layer = sourceLayerOf(u->scenario);
            sources.emplace_back(
                timed(kSourceMake[layer], batch,
                      [&] { return makeSource(u->scenario, *topo); }),
                layer);
        }

        {
            SpanScope drive("sim.drive", batch);
            DriveStats &st = drive.drive();
            st.batch = bn.get();
            std::vector<BatchLaneSim> lanes;
            for (std::size_t l = 0; l < chunk.size(); ++l)
                lanes.push_back({timedSource(std::move(sources[l].first),
                                             sources[l].second, st),
                                 chunk[l]->scenario.sim});
            std::vector<SimResult> res = runBatchedSimulation(*bn, lanes);
            st.batch = nullptr;
            for (std::size_t l = 0; l < chunk.size(); ++l) {
                const SimConfig &cfg = chunk[l]->scenario.sim;
                noteNetwork(st, bn->lane(static_cast<int>(l)),
                            cfg.warmupCycles + cfg.measureCycles);
                results_[chunk[l]->job].points[chunk[l]->point] =
                    pointRow(chunk[l]->scenario, res[l]);
            }
        }
        timed("sim.net_free", batch, [&] {
            bn.reset();
            return 0;
        });
    }

    /** The runner's runBatched: classify, group, chunk, pool. */
    void
    runBatched(const SpanScope &pass)
    {
        std::vector<Unit> units;
        std::vector<std::size_t> fallback;
        std::vector<std::size_t> cached;
        remaining_.assign(plan_.jobs.size(), 0);
        auto tryCache = [&](const Scenario &s, JobResult &job,
                            ScenarioResult &slot) {
            if (std::optional<SimResult> hit = lookup(s, pass)) {
                ++job.cacheHits;
                slot = pointRow(s, *hit);
                return true;
            }
            if (store_)
                ++job.cacheMisses;
            return false;
        };
        for (std::size_t i = 0; i < plan_.jobs.size(); ++i) {
            const Job &job = plan_.jobs[i];
            if (!batchable(job)) {
                fallback.push_back(i);
                remaining_[i] = 1;
                continue;
            }
            results_[i].kind = job.kind;
            std::vector<double> xs;
            if (job.kind == Job::Kind::Sweep)
                xs = job.loads;
            results_[i].points.resize(std::max<std::size_t>(1, xs.size()));
            for (std::size_t k = 0; k < results_[i].points.size(); ++k) {
                Scenario s = job.scenario;
                if (!xs.empty())
                    applySweepValue(s, xs[k]);
                if (tryCache(s, results_[i], results_[i].points[k]))
                    continue;
                units.push_back({i, k, std::move(s)});
                ++remaining_[i];
            }
            if (remaining_[i] == 0)
                cached.push_back(i);
        }

        std::map<std::string, std::vector<std::size_t>> groups;
        for (std::size_t u = 0; u < units.size(); ++u)
            groups[batchKey(units[u].scenario)].push_back(u);
        struct Task
        {
            std::vector<const Unit *> chunk; //!< empty => fallback job
            std::size_t job = 0;
        };
        std::vector<Task> tasks;
        std::size_t cap = static_cast<std::size_t>(lanes_);
        for (const auto &[key, g] : groups)
            for (std::size_t off = 0; off < g.size(); off += cap) {
                Task t;
                for (std::size_t u = off; u < std::min(g.size(), off + cap);
                     ++u)
                    t.chunk.push_back(&units[g[u]]);
                tasks.push_back(std::move(t));
            }
        for (std::size_t j : fallback)
            tasks.push_back(Task{{}, j});

        for (std::size_t job : cached) {
            std::lock_guard<std::mutex> lock(reportMutex_);
            finishJob(job, pass);
        }

        int workers = std::min<int>(threads_, static_cast<int>(tasks.size()));
        runPool(workers, tasks.size(), [&](std::size_t i) {
            const Task &t = tasks[i];
            if (t.chunk.empty()) {
                SpanScope job("job", &pass);
                results_[t.job] = runJob(plan_.jobs[t.job], job);
                auto lock = lockReport(job);
                finishJob(t.job, job);
                return;
            }
            SpanScope batch("batch", &pass);
            auto c0 = Clock::now();
            if (t.chunk.size() == 1) {
                // One lane amortizes nothing; the runner takes the
                // plain path.
                const Unit &u = *t.chunk[0];
                SimResult r = simulate(u.scenario, 1, batch);
                results_[u.job].points[u.point] = pointRow(u.scenario, r);
                put(u.scenario, r, batch);
            } else {
                runChunk(t.chunk, batch);
                for (const Unit *u : t.chunk)
                    put(u->scenario, results_[u->job].points[u->point].sim,
                        batch);
            }
            double share = elapsedMs(c0) / static_cast<double>(t.chunk.size());
            auto lock = lockReport(batch);
            for (const Unit *u : t.chunk) {
                results_[u->job].wallMs += share;
                if (--remaining_[u->job] == 0)
                    finishJob(u->job, batch);
            }
        });
    }
};

// --- output -----------------------------------------------------------------

void
writeChromeTrace(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream f(path);
    if (!f)
        fatal("cannot write '", path, "'");
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans) {
        f << (first ? "\n" : ",\n");
        first = false;
        char head[256];
        std::snprintf(head, sizeof head,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                      "\"parent\":%llu,\"point\":%llu",
                      std::string(s.name).c_str(), s.tid, s.t0 / 1e3,
                      (s.t1 - s.t0) / 1e3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.point));
        f << head;
        if (s.name == "sim.drive") {
            const DriveStats &d = s.drive;
            const char *names[kSourceLayers] = {"traffic", "workload",
                                                "trace"};
            for (int l = 0; l < kSourceLayers; ++l)
                if (d.sourceCalls[l])
                    f << ",\"" << names[l] << "_source_us\":"
                      << d.sourceNs[l] / 1e3 << ",\"" << names[l]
                      << "_source_calls\":" << d.sourceCalls[l];
            f << ",\"router_cycles\":" << d.routerCycles;
        }
        f << "}}";
    }
    f << "\n]}\n";
}

/** Per-layer totals (self time in seconds, counts) as one JSON line. */
void
printLayers(const std::vector<Span> &spans, std::size_t points,
            double topoRouters)
{
    std::map<std::string, double> sec;  // summed span durations
    std::map<std::uint64_t, double> childNs;
    DriveStats sum;
    for (const Span &s : spans) {
        double dur = static_cast<double>(s.t1 - s.t0);
        sec[std::string(s.name)] += dur / 1e9;
        childNs[s.parent] += dur;
        if (s.name != "sim.drive")
            continue;
        for (int l = 0; l < kSourceLayers; ++l) {
            sum.sourceNs[l] += s.drive.sourceNs[l];
            sum.sourceCalls[l] += s.drive.sourceCalls[l];
        }
        sum.activeRouters += s.drive.activeRouters;
        sum.routerSlots += s.drive.routerSlots;
        sum.routerCycles += s.drive.routerCycles;
        sum.flitHops += s.drive.flitHops;
        sum.drainCycles += s.drive.drainCycles;
    }

    // Every point (and batch chunk) must be explained by its layer
    // spans; glue code between them is the uncovered rest.
    double minCoverage = 1.0;
    std::size_t pointSpans = 0;
    std::size_t below = 0;
    for (const Span &s : spans) {
        if (s.name != "point" && s.name != "batch")
            continue;
        ++pointSpans;
        double dur = static_cast<double>(s.t1 - s.t0);
        double cov = dur > 0 ? childNs[s.id] / dur : 1.0;
        minCoverage = std::min(minCoverage, cov);
        below += cov < 0.9 ? 1 : 0;
    }

    auto srcSec = [&](int l) { return sum.sourceNs[l] / 1e9; };
    double driveSec = sec["sim.drive"];
    double stepSec =
        driveSec - srcSec(kTraffic) - srcSec(kWorkload) - srcSec(kTrace);
    auto share = [&](double part) {
        return driveSec > 0 ? part / driveSec : 0.0;
    };
    std::map<std::string, double> m = {
        {"traffic.source_s", srcSec(kTraffic) + sec["traffic.make"]},
        {"traffic.source_calls",
         static_cast<double>(sum.sourceCalls[kTraffic])},
        {"traffic.source_share", share(srcSec(kTraffic))},
        {"sim.step_s", stepSec},
        {"sim.router_cycles", sum.routerCycles},
        {"sim.ns_per_router_cycle",
         sum.routerCycles > 0 ? stepSec * 1e9 / sum.routerCycles : 0.0},
        {"sim.active_router_frac",
         sum.routerSlots > 0 ? sum.activeRouters / sum.routerSlots : 0.0},
        {"sim.flit_hops", sum.flitHops},
        {"sim.drain_cycles", sum.drainCycles},
        {"graph.partition_s", sec["graph.partition"]},
        {"topo.build_s", sec["topo.get"]},
        {"topo.routers", topoRouters},
        {"sim.net_build_s", sec["sim.net_build"]},
        {"sim.net_free_s", sec["sim.net_free"]},
        {"trace.gen_s", sec["trace.gen"]},
        {"trace.source_s", srcSec(kTrace)},
        {"workload.source_s", srcSec(kWorkload) + sec["workload.make"]},
        {"workload.source_share", share(srcSec(kWorkload))},
        {"power.eval_s", sec["power.eval"]},
        {"exp.parse_s", sec["exp.parse"]},
        {"exp.render_s", sec["exp.render"]},
        {"exp.store.put_s", sec["exp.store.put"]},
        {"exp.store.lookup_s", sec["exp.store.lookup"]},
        {"exp.journal.append_s", sec["exp.journal.append"]},
        {"exp.report.wait_s", sec["exp.report.wait"]},
        {"exp.points", static_cast<double>(points)},
    };
    std::ostringstream out;
    out.precision(9);
    out << "{\"layers\":{";
    bool first = true;
    for (const auto &[k, v] : m) {
        out << (first ? "" : ",") << "\"" << k << "\":" << v;
        first = false;
    }
    out << "},\"point_spans\":" << pointSpans
        << ",\"min_point_coverage\":" << minCoverage
        << ",\"points_below_90pct\":" << below << "}";
    std::cout << out.str() << std::endl;
}

// --- commands ---------------------------------------------------------------

/**
 * Set-up time, tracing off: parse the plan, build each distinct
 * topology once, construct one Network per distinct (topology, router
 * config, link, routing). Repeated from an empty cache until
 * `seconds` have passed (at least five times).
 */
int
cmdSetup(const std::string &planPath, double seconds)
{
    std::cout << "{\"setup_s\":[";
    auto start = Clock::now();
    for (int rep = 0; rep < 5 || elapsedMs(start) < seconds * 1e3; ++rep) {
        TopologyCache::instance().clear();
        auto t0 = Clock::now();
        ExperimentPlan plan = parsePlan(readTextFile(planPath), planPath);
        std::set<std::string> built;
        for (const Job &job : plan.jobs) {
            const Scenario &s = job.scenario;
            if (!built.insert(batchKey(s)).second)
                continue;
            Network net(TopologyCache::instance().get(s.topology),
                        RouterConfig::named(s.routerConfig), s.link,
                        s.routing);
        }
        std::cout << (rep ? "," : "") << elapsedMs(t0) / 1e3;
    }
    std::cout << "]}" << std::endl;
    return 0;
}

int
cmdReplay(const std::string &planPath, const std::string &outDir,
          int threads, const std::string &storeRoot, int passes)
{
    // Resolve lanes and shards exactly as `snoc run` does (from the
    // same environment knobs).
    RunnerOptions opts;
    opts.threads = threads;
    ExperimentRunner probe(opts);

    std::string render;
    std::size_t points = 0;
    double routers = 0;
    for (int p = 0; p < passes; ++p) {
        std::unique_ptr<ResultStore> store;
        if (!storeRoot.empty())
            store = std::make_unique<ResultStore>(storeRoot);
        PlanPass pass(probe.threadCount(), probe.batchLaneCount(),
                      probe.simShardCount(), store.get(),
                      outDir + "/snoc_journal.jsonl");
        std::string bytes = pass.run(planPath);
        if (p > 0 && bytes != render)
            fatal("pass ", p + 1, " rendered different bytes than pass 1");
        render = std::move(bytes);
        points += pass.points();
        routers += pass.routers();
    }

    std::ofstream(outDir + "/render.json", std::ios::binary) << render;
    std::vector<Span> spans = tracer.collect();
    writeChromeTrace(spans, outDir + "/trace.json");
    printLayers(spans, points, routers);
    return 0;
}

int
usage()
{
    std::cerr << "usage: e2e_trace_driver setup <plan.json> <seconds>\n"
                 "       e2e_trace_driver replay <plan.json> <out-dir> "
                 "--threads N [--store DIR] [--passes N]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 3 && args[0] == "setup")
            return cmdSetup(args[1], std::stod(args[2]));
        if (args.size() >= 3 && args[0] == "replay") {
            int threads = 0;
            int passes = 1;
            std::string store;
            for (std::size_t i = 3; i + 1 < args.size(); i += 2) {
                if (args[i] == "--threads")
                    threads = std::stoi(args[i + 1]);
                else if (args[i] == "--store")
                    store = args[i + 1];
                else if (args[i] == "--passes")
                    passes = std::stoi(args[i + 1]);
                else
                    return usage();
            }
            if (threads < 1 || passes < 1 || args.size() % 2 == 0)
                return usage();
            return cmdReplay(args[1], args[2], threads, store, passes);
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
