#include "sim/shard.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace snoc {

ShardedNetwork::ShardedNetwork(Network &net, int numShards)
    : net_(net),
      part_(partitionTopology(net.topology(), numShards)),
      barrier_(part_.numShards)
{
    const int s = part_.numShards;
    shards_.resize(static_cast<std::size_t>(s));
    for (int i = 0; i < s; ++i)
        shards_[static_cast<std::size_t>(i)].routers =
            part_.routersOf[static_cast<std::size_t>(i)];

    const NocTopology &topo = net_.topology();
    for (int node = 0; node < topo.numNodes(); ++node)
        shards_[static_cast<std::size_t>(
                    part_.shardOf[static_cast<std::size_t>(
                        topo.routerOfNode(node))])]
            .nodes.push_back(node);

    // Split the worklist's channel scan by wake target: the shard
    // owning a channel's flit sink checks its flits, the shard owning
    // its credit sink checks its credits.
    for (std::size_t c = 0; c < net_.channels_.size(); ++c) {
        shards_[static_cast<std::size_t>(
                    part_.shardOf[static_cast<std::size_t>(
                        net_.chanFlitSink_[c])])]
            .flitWake.push_back(static_cast<int>(c));
        shards_[static_cast<std::size_t>(
                    part_.shardOf[static_cast<std::size_t>(
                        net_.chanCreditSink_[c])])]
            .creditWake.push_back(static_cast<int>(c));
    }

    for (auto &sh : shards_) {
        sh.active.reserve(sh.routers.size());
        sh.segments.reserve(sh.routers.size());
        sh.delivered.reserve(static_cast<std::size_t>(topo.numNodes()));
    }
    segCursor_.resize(static_cast<std::size_t>(s));
    flitCursor_.resize(static_cast<std::size_t>(s));
    routerActive_.resize(net_.routers_.size());

    // The worklist visits a router whenever traffic is parked on one
    // of its channels, so collect checks every network port.
    portWords_ = net_.cal_->portWords();
    allPorts_.assign(net_.routers_.size() *
                         static_cast<std::size_t>(portWords_),
                     0);
    for (std::size_t r = 0; r < net_.routers_.size(); ++r)
        for (int p = 0; p < net_.routers_[r]->numNetPorts(); ++p)
            WakeCalendar::set(allPortsOf(static_cast<int>(r)), p);

    // Point each router's counters at its shard so the parallel
    // phases never write a shared counter; the epilogue folds them.
    // Detach the calendar too: pushes from several shards would race
    // on shared wheel words.
    for (std::size_t r = 0; r < net_.routers_.size(); ++r)
        net_.routers_[r]->counters_ =
            &shards_[static_cast<std::size_t>(part_.shardOf[r])]
                 .counters;
    net_.attachCalendar(false);

    workers_.reserve(static_cast<std::size_t>(s - 1));
    for (int i = 1; i < s; ++i)
        workers_.emplace_back(&ShardedNetwork::workerLoop, this, i);
}

ShardedNetwork::~ShardedNetwork()
{
    if (!workers_.empty()) {
        stop_.store(true, std::memory_order_relaxed);
        barrier_.wait(mainSense_); // release workers into shutdown
        for (auto &t : workers_)
            t.join();
    }
    // Detach: fold any unfolded shard counters (all zero after a
    // completed step) and restore the routers' counter target.
    for (auto &sh : shards_) {
        *net_.counters_ += sh.counters;
        sh.counters.reset();
    }
    for (auto &r : net_.routers_)
        r->counters_ = net_.counters_.get();
    net_.attachCalendar(true);
}

std::uint64_t *
ShardedNetwork::allPortsOf(int router)
{
    return allPorts_.data() + static_cast<std::size_t>(router) *
                                  static_cast<std::size_t>(portWords_);
}

void
ShardedNetwork::workerLoop(int shard)
{
    bool sense = false;
    for (;;) {
        barrier_.wait(sense); // start of cycle (or shutdown)
        if (stop_.load(std::memory_order_relaxed))
            return;
        phaseA(shard);
        barrier_.wait(sense);
        phaseB(shard);
        barrier_.wait(sense);
        phaseC(shard);
        barrier_.wait(sense); // end of cycle: epilogue is serial
    }
}

void
ShardedNetwork::step()
{
    Network &n = net_;
    // Serial prologue: mirrors the head of Network::step(). Workers
    // are parked on the barrier, so whole-network fault events are
    // safe here.
    if (!n.stateAttached_) {
        n.routing_->attachState(n);
        n.stateAttached_ = true;
    }
    if (n.faultsArmed_)
        n.applyPendingFaults();

    barrier_.wait(mainSense_);
    phaseA(0);
    barrier_.wait(mainSense_);
    phaseB(0);
    barrier_.wait(mainSense_);
    phaseC(0);
    barrier_.wait(mainSense_);

    // Serial epilogue.
    mergeDelivered();
    n.processDelivered();
    lastActive_ = 0;
    for (auto &sh : shards_) {
        *n.counters_ += sh.counters;
        sh.counters.reset();
        lastActive_ += sh.active.size();
    }
    ++n.now_;
}

void
ShardedNetwork::phaseA(int shard)
{
    Network &n = net_;
    Shard &sh = shards_[static_cast<std::size_t>(shard)];
    for (int node : sh.nodes)
        n.pumpNode(node, sh.counters);
    // Worklist over owned routers only: a router runs if it holds
    // buffered flits or traffic is parked on an incident channel.
    // routerActive_ bytes of other shards are distinct memory
    // locations, channel reads are quiescent between phases.
    for (int r : sh.routers)
        routerActive_[static_cast<std::size_t>(r)] =
            n.routers_[static_cast<std::size_t>(r)]->bufferedFlits() >
            0;
    for (int c : sh.flitWake)
        if (n.channels_[static_cast<std::size_t>(c)]->flitsInFlight() >
            0)
            routerActive_[static_cast<std::size_t>(
                n.chanFlitSink_[static_cast<std::size_t>(c)])] = 1;
    for (int c : sh.creditWake)
        if (n.channels_[static_cast<std::size_t>(c)]
                ->creditsInFlight() > 0)
            routerActive_[static_cast<std::size_t>(
                n.chanCreditSink_[static_cast<std::size_t>(c)])] = 1;
    sh.active.clear();
    for (int r : sh.routers)
        if (routerActive_[static_cast<std::size_t>(r)])
            sh.active.push_back(r);
}

void
ShardedNetwork::phaseB(int shard)
{
    Network &n = net_;
    Shard &sh = shards_[static_cast<std::size_t>(shard)];
    for (int r : sh.active) {
        const std::uint64_t *all = allPortsOf(r);
        n.routers_[static_cast<std::size_t>(r)]->collectArrivals(
            n.now_, all, all);
    }
}

void
ShardedNetwork::phaseC(int shard)
{
    Network &n = net_;
    Shard &sh = shards_[static_cast<std::size_t>(shard)];
    for (int r : sh.active)
        n.routers_[static_cast<std::size_t>(r)]->step(n.now_);
    // Ejection drains touch only router-local queues and the drained
    // packets themselves, so no barrier is needed between step and
    // drain; the per-router segments let the epilogue reproduce the
    // serial ascending-router delivery order.
    sh.delivered.clear();
    sh.segments.clear();
    for (int r : sh.active) {
        std::size_t before = sh.delivered.size();
        n.routers_[static_cast<std::size_t>(r)]->drainEjection(
            n.now_, sh.delivered);
        if (sh.delivered.size() > before)
            sh.segments.push_back(
                {r, sh.delivered.size() - before});
    }
}

void
ShardedNetwork::mergeDelivered()
{
    Network &n = net_;
    n.deliveredScratch_.clear();
    const int s = part_.numShards;
    std::fill(segCursor_.begin(), segCursor_.end(), std::size_t{0});
    std::fill(flitCursor_.begin(), flitCursor_.end(), std::size_t{0});
    // K-way merge of per-shard (ascending-router) segment lists into
    // the global ascending-router order of the serial drain loop.
    // Linear min-scan per segment: shard counts are small.
    for (;;) {
        int best = -1;
        int bestRouter = std::numeric_limits<int>::max();
        for (int i = 0; i < s; ++i) {
            const Shard &sh = shards_[static_cast<std::size_t>(i)];
            std::size_t cur = segCursor_[static_cast<std::size_t>(i)];
            if (cur < sh.segments.size() &&
                sh.segments[cur].router < bestRouter) {
                bestRouter = sh.segments[cur].router;
                best = i;
            }
        }
        if (best < 0)
            break;
        Shard &sh = shards_[static_cast<std::size_t>(best)];
        const Shard::Segment &seg =
            sh.segments[segCursor_[static_cast<std::size_t>(best)]];
        std::size_t &f = flitCursor_[static_cast<std::size_t>(best)];
        for (std::size_t k = 0; k < seg.count; ++k)
            n.deliveredScratch_.push_back(sh.delivered[f++]);
        ++segCursor_[static_cast<std::size_t>(best)];
    }
}

bool
ShardedNetwork::auditInvariants(std::string &err) const
{
    const Network &n = net_;
    const int numRouters = n.topology().numRouters();

    // Every router owned by exactly one shard, lists ascending.
    std::vector<int> owners(static_cast<std::size_t>(numRouters), 0);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard &sh = shards_[i];
        for (std::size_t k = 0; k < sh.routers.size(); ++k) {
            int r = sh.routers[k];
            ++owners[static_cast<std::size_t>(r)];
            if (part_.shardOf[static_cast<std::size_t>(r)] !=
                static_cast<int>(i)) {
                err = "shard audit: router/shardOf mismatch";
                return false;
            }
            if (k > 0 && sh.routers[k - 1] >= r) {
                err = "shard audit: router list not ascending";
                return false;
            }
        }
    }
    for (int r = 0; r < numRouters; ++r) {
        if (owners[static_cast<std::size_t>(r)] != 1) {
            err = "shard audit: router not owned exactly once";
            return false;
        }
    }

    // Every channel on exactly one flit wake list and one credit
    // wake list (its two rings each have exactly one consumer), and
    // boundary in-flight flits counted exactly once: summing each
    // shard's owned-router buffers plus its flit-wake channels must
    // reproduce the global in-flight count.
    std::vector<int> flitSeen(n.channels_.size(), 0);
    std::vector<int> creditSeen(n.channels_.size(), 0);
    std::uint64_t inFlight = 0;
    for (const Shard &sh : shards_) {
        for (int r : sh.routers)
            inFlight += static_cast<std::uint64_t>(
                n.routers_[static_cast<std::size_t>(r)]
                    ->bufferedFlits());
        for (int c : sh.flitWake) {
            ++flitSeen[static_cast<std::size_t>(c)];
            inFlight += n.channels_[static_cast<std::size_t>(c)]
                            ->flitsInFlight();
        }
        for (int c : sh.creditWake)
            ++creditSeen[static_cast<std::size_t>(c)];
    }
    for (std::size_t c = 0; c < n.channels_.size(); ++c) {
        if (flitSeen[c] != 1 || creditSeen[c] != 1) {
            err = "shard audit: channel wake list not a partition";
            return false;
        }
    }
    if (inFlight != n.flitsInFlight()) {
        err = "shard audit: sharded in-flight recount mismatch";
        return false;
    }

    // At a cycle boundary every shard counter has been folded.
    for (const Shard &sh : shards_) {
        if (!(sh.counters == SimCounters{})) {
            err = "shard audit: unfolded per-shard counters";
            return false;
        }
    }

    return n.auditInvariants(err);
}

SimResult
runShardedSimulation(ShardedNetwork &sn, const TrafficSource &source,
                     const SimConfig &cfg)
{
    RunSchedule run(sn.network(), source, cfg);
    while (run.next())
        sn.step();
    return run.result();
}

} // namespace snoc
