#include "sim/batch.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/log.hh"

namespace snoc {

namespace {

/** Iterate the set bits of a mask word, lowest first. */
inline int
popLowest(std::uint64_t &m)
{
    int l = std::countr_zero(m);
    m &= m - 1;
    return l;
}

} // namespace

BatchedNetwork::BatchedNetwork(std::shared_ptr<const NocTopology> topo,
                               const RouterConfig &router,
                               const LinkConfig &link, RoutingMode mode,
                               const std::vector<LaneSpec> &specs)
{
    SNOC_ASSERT(topo != nullptr, "null shared topology");
    SNOC_ASSERT(!specs.empty(), "batch needs at least one lane");
    SNOC_ASSERT(specs.size() <= static_cast<std::size_t>(kMaxLanes),
                "too many lanes for one mask word");

    // One fault-free path table for every lane; a lane whose fault
    // plan fires swaps only its own pointer (copy-on-write).
    auto sharedPaths =
        std::make_shared<const ShortestPaths>(topo->routers());

    lanes_.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        lanes_.push_back(std::make_unique<Network>(
            topo, router, link, mode, specs[i].routingSeed,
            specs[i].faults, sharedPaths));
        lanes_.back()->batchObs_ = this;
        lanes_.back()->batchLane_ = static_cast<int>(i);
    }

    const Network &n0 = *lanes_.front();
    numRouters_ = static_cast<int>(n0.routers_.size());
    numNodes_ = topo->numNodes();
    words_ = (numRouters_ + 63) / 64;
    nodeWords_ = (numNodes_ + 63) / 64;

    // The wheel must cover the farthest-future arrival a visit can
    // schedule: flits land at now + latency + (pipelineCycles - 1),
    // credits at now + latency. One extra slot keeps the current
    // cycle's slot (writable by the fault resync) alias-free.
    int maxLat = 1;
    for (const auto &c : n0.channels_)
        maxLat = std::max(maxLat, c->latency());
    wheelSize_ = maxLat + std::max(router.pipelineCycles, 1) + 1;

    int lanes = numLanes();
    std::size_t laneWords = static_cast<std::size_t>(lanes) *
                            static_cast<std::size_t>(words_);
    queued_.assign(laneWords, 0);
    visit_.assign(laneWords, 0);
    wheel_.assign(static_cast<std::size_t>(wheelSize_) * laneWords, 0);
    srcPending_.assign(static_cast<std::size_t>(lanes) *
                           static_cast<std::size_t>(nodeWords_),
                       0);

    // Channel geometry is identical across lanes (same build over the
    // same topology): copy the sink tables from lane 0 and invert
    // them into a per-router CSR of incident channels. A channel is
    // incident to both endpoints — the upstream router pushes flits
    // and consumes credits, the downstream one the reverse — so it is
    // listed under each.
    chanFlitSink_ = n0.chanFlitSink_;
    chanCreditSink_ = n0.chanCreditSink_;
    std::size_t numChans = n0.channels_.size();
    chanFirst_.assign(static_cast<std::size_t>(numRouters_) + 1, 0);
    for (std::size_t c = 0; c < numChans; ++c) {
        ++chanFirst_[static_cast<std::size_t>(chanFlitSink_[c]) + 1];
        ++chanFirst_[static_cast<std::size_t>(chanCreditSink_[c]) + 1];
    }
    for (int r = 0; r < numRouters_; ++r)
        chanFirst_[static_cast<std::size_t>(r) + 1] +=
            chanFirst_[static_cast<std::size_t>(r)];
    chanRefs_.resize(2 * numChans);
    std::vector<int> fill(chanFirst_.begin(), chanFirst_.end() - 1);
    for (std::size_t c = 0; c < numChans; ++c) {
        chanRefs_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(chanFlitSink_[c])]++)] =
            static_cast<int>(c);
        chanRefs_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(chanCreditSink_[c])]++)] =
            static_cast<int>(c);
    }
}

BatchedNetwork::~BatchedNetwork() = default;

std::uint64_t *
BatchedNetwork::queuedLane(int l)
{
    return queued_.data() +
           static_cast<std::size_t>(l) * static_cast<std::size_t>(words_);
}

std::uint64_t *
BatchedNetwork::visitLane(int l)
{
    return visit_.data() +
           static_cast<std::size_t>(l) * static_cast<std::size_t>(words_);
}

std::uint64_t *
BatchedNetwork::wheelSlot(int slot, int l)
{
    return wheel_.data() +
           (static_cast<std::size_t>(slot) *
                static_cast<std::size_t>(numLanes()) +
            static_cast<std::size_t>(l)) *
               static_cast<std::size_t>(words_);
}

std::uint64_t *
BatchedNetwork::srcPendingLane(int l)
{
    return srcPending_.data() + static_cast<std::size_t>(l) *
                                    static_cast<std::size_t>(nodeWords_);
}

void
BatchedNetwork::setQueued(int laneIdx, int router)
{
    queuedLane(laneIdx)[static_cast<std::size_t>(router >> 6)] |=
        std::uint64_t{1} << (router & 63);
}

void
BatchedNetwork::scheduleWake(int laneIdx, int router, Cycle at,
                             Cycle now)
{
    // Wakes land in (now, now + wheelSize) from the post-phase scan;
    // the fault resync may also write the current cycle's slot, which
    // is legal there because faults apply before the visit sets are
    // read. Either way the window is narrower than the wheel, so no
    // slot aliases another pending wake.
    Cycle eff = at > now ? at : now;
    SNOC_ASSERT(eff - now < static_cast<Cycle>(wheelSize_),
                "wake beyond the wheel horizon");
    wheelSlot(static_cast<int>(eff %
                               static_cast<Cycle>(wheelSize_)),
              laneIdx)[static_cast<std::size_t>(router >> 6)] |=
        std::uint64_t{1} << (router & 63);
}

void
BatchedNetwork::resyncLane(int laneIdx)
{
    // A fault event rewrote the lane wholesale: buffers were purged,
    // source queues filtered, and reclaim credits pushed into
    // channels at fresh arrival times. Recount this lane's queued
    // and source-pending bits from scratch and reschedule a wake from
    // every channel front (stale wakes for purged traffic remain and
    // fire as harmless no-op visits).
    Network &n = *lanes_[static_cast<std::size_t>(laneIdx)];
    Cycle now = n.now_;
    std::uint64_t *q = queuedLane(laneIdx);
    std::fill(q, q + words_, 0);
    for (int r = 0; r < numRouters_; ++r)
        if (n.routers_[static_cast<std::size_t>(r)]->bufferedFlits() > 0)
            setQueued(laneIdx, r);
    std::uint64_t *pend = srcPendingLane(laneIdx);
    std::fill(pend, pend + nodeWords_, 0);
    for (int node = 0; node < numNodes_; ++node)
        if (!n.sourceQueues_[static_cast<std::size_t>(node)].empty())
            pend[node >> 6] |= std::uint64_t{1} << (node & 63);
    for (std::size_t c = 0; c < n.channels_.size(); ++c) {
        const FlitChannel &ch = *n.channels_[c];
        if (ch.flitsInFlight() > 0)
            scheduleWake(laneIdx, chanFlitSink_[c],
                         ch.frontFlitArrival(), now);
        if (ch.creditsInFlight() > 0)
            scheduleWake(laneIdx, chanCreditSink_[c],
                         ch.frontCreditArrival(), now);
    }
}

void
BatchedNetwork::reservePackets(std::size_t packets)
{
    for (auto &n : lanes_)
        n->reservePackets(packets);
}

void
BatchedNetwork::step(std::uint64_t laneMask)
{
    laneMask &= allLanes();
    if (laneMask == 0)
        return;
    Cycle now =
        lanes_[static_cast<std::size_t>(std::countr_zero(laneMask))]
            ->now_;

    // -- per-lane prologue: lazy state attach + pending faults --
    for (std::uint64_t m = laneMask; m;) {
        int l = popLowest(m);
        Network &n = *lanes_[static_cast<std::size_t>(l)];
        SNOC_ASSERT(n.now_ == now, "batched lanes out of sync");
        if (!n.stateAttached_) {
            n.routing_->attachState(n);
            n.stateAttached_ = true;
        }
        if (n.faultsArmed_) {
            std::size_t before = n.faultCursor_;
            n.applyPendingFaults();
            if (n.faultCursor_ != before)
                resyncLane(l);
        }
    }

    // -- injection pump: only nodes with queued offers, ascending
    //    within each lane (Network::pumpInjection's order) --
    for (std::uint64_t m = laneMask; m;) {
        int l = popLowest(m);
        Network &n = *lanes_[static_cast<std::size_t>(l)];
        std::uint64_t *pend = srcPendingLane(l);
        for (int w = 0; w < nodeWords_; ++w) {
            for (std::uint64_t uw = pend[w]; uw;) {
                int bit = popLowest(uw);
                int node = (w << 6) + bit;
                if (n.pumpNode(node, *n.counters_) > 0)
                    setQueued(l, n.topology().routerOfNode(node));
                if (n.sourceQueues_[static_cast<std::size_t>(node)]
                        .empty())
                    pend[w] &= ~(std::uint64_t{1} << bit);
            }
        }
    }

    // -- visit sets: queued | wake-due, per lane --
    int slot = static_cast<int>(now % static_cast<Cycle>(wheelSize_));
    for (std::uint64_t m = laneMask; m;) {
        int l = popLowest(m);
        std::uint64_t *q = queuedLane(l);
        std::uint64_t *wh = wheelSlot(slot, l);
        std::uint64_t *vis = visitLane(l);
        for (int w = 0; w < words_; ++w) {
            vis[w] = q[w] | wh[w];
            wh[w] = 0;
        }
    }

    // Lanes never interact (all sharing is read-only structure), so
    // a multi-lane mask runs each lane's complete cycle — collect
    // every visited router in ascending order, then step, then
    // drain, exactly Network::step()'s phase structure — before the
    // next lane starts, which is trivially bitwise identical per
    // lane. (runBatchedSimulation passes one lane at a time.) Cross-
    // router reads inside route() (UGAL occupancy probes) see the
    // same intermediate state as an unbatched run.
    lastVisited_ = 0;
    for (std::uint64_t m = laneMask; m;) {
        int l = popLowest(m);
        Network &n = *lanes_[static_cast<std::size_t>(l)];
        const std::uint64_t *vis = visitLane(l);

        // -- phase A: absorb arrivals --
        for (int w = 0; w < words_; ++w) {
            std::uint64_t uw = vis[w];
            while (uw) {
                int r = (w << 6) + std::countr_zero(uw);
                uw &= uw - 1;
                n.routers_[static_cast<std::size_t>(r)]
                    ->collectArrivals(now);
                ++lastVisited_;
            }
        }

        // -- phase B: route / allocate / send (skip empty routers:
        //    Router::step() on a router with no buffered flits is a
        //    provable no-op — all stages gate on occupancy masks and
        //    the round-robin pointers derive from `now`) --
        for (int w = 0; w < words_; ++w) {
            std::uint64_t uw = vis[w];
            while (uw) {
                int r = (w << 6) + std::countr_zero(uw);
                uw &= uw - 1;
                Router &rt =
                    *n.routers_[static_cast<std::size_t>(r)];
                if (rt.bufferedFlits() > 0)
                    rt.step(now);
            }
        }

        // -- phase C: drain ejection + delivery accounting --
        n.deliveredScratch_.clear();
        for (int w = 0; w < words_; ++w) {
            std::uint64_t uw = vis[w];
            while (uw) {
                int r = (w << 6) + std::countr_zero(uw);
                uw &= uw - 1;
                n.routers_[static_cast<std::size_t>(r)]
                    ->drainEjection(now, n.deliveredScratch_);
            }
        }
        n.processDelivered();

        // -- epilogue: refresh queued bits and schedule arrival-
        //    exact wakes from the channel fronts of every visited
        //    router. Every channel push this cycle came from a
        //    visited router, and any older front was rescheduled
        //    when its sink last fired, so scanning visited routers'
        //    incident channels maintains the wake invariant: each
        //    in-flight front has a wake at exactly its arrival
        //    cycle. --
        for (int w = 0; w < words_; ++w) {
            std::uint64_t uw = vis[w];
            while (uw) {
                int r = (w << 6) + std::countr_zero(uw);
                uw &= uw - 1;
                std::uint64_t rbit = std::uint64_t{1} << (r & 63);
                if (n.routers_[static_cast<std::size_t>(r)]
                        ->bufferedFlits() > 0)
                    queuedLane(l)[w] |= rbit;
                else
                    queuedLane(l)[w] &= ~rbit;
                for (int k = chanFirst_[static_cast<std::size_t>(r)];
                     k < chanFirst_[static_cast<std::size_t>(r) + 1];
                     ++k) {
                    std::size_t c =
                        static_cast<std::size_t>(chanRefs_[
                            static_cast<std::size_t>(k)]);
                    const FlitChannel &ch = *n.channels_[c];
                    if (ch.flitsInFlight() > 0)
                        scheduleWake(l, chanFlitSink_[c],
                                     ch.frontFlitArrival(), now);
                    if (ch.creditsInFlight() > 0)
                        scheduleWake(l, chanCreditSink_[c],
                                     ch.frontCreditArrival(), now);
                }
            }
        }

        ++n.now_;
    }
}

bool
BatchedNetwork::auditInvariants(std::string &err) const
{
    auto *self = const_cast<BatchedNetwork *>(this);
    for (int l = 0; l < numLanes(); ++l) {
        const Network &n = *lanes_[static_cast<std::size_t>(l)];
        std::string laneErr;
        if (!n.auditInvariants(laneErr)) {
            std::ostringstream oss;
            oss << "lane " << l << ": " << laneErr;
            err = oss.str();
            return false;
        }
        const std::uint64_t *q = self->queuedLane(l);
        for (int r = 0; r < numRouters_; ++r) {
            bool bit = (q[r >> 6] >> (r & 63)) & 1;
            bool has =
                n.routers_[static_cast<std::size_t>(r)]->bufferedFlits() >
                0;
            if (bit != has) {
                std::ostringstream oss;
                oss << "lane " << l << " router " << r
                    << ": queued bit " << bit << " but buffered="
                    << n.routers_[static_cast<std::size_t>(r)]
                           ->bufferedFlits();
                err = oss.str();
                return false;
            }
        }
        const std::uint64_t *pendBits = self->srcPendingLane(l);
        for (int node = 0; node < numNodes_; ++node) {
            bool pend = (pendBits[node >> 6] >> (node & 63)) & 1;
            bool nonEmpty =
                !n.sourceQueues_[static_cast<std::size_t>(node)].empty();
            if (pend != nonEmpty) {
                std::ostringstream oss;
                oss << "lane " << l << " node " << node
                    << ": srcPending " << pend << " but queue depth "
                    << n.sourceQueues_[static_cast<std::size_t>(node)]
                           .size();
                err = oss.str();
                return false;
            }
        }
        // Every in-flight front must have a wake parked somewhere in
        // the wheel for its sink (exact-cycle coverage is untestable
        // without absolute slot timestamps, but a missing bit means a
        // lost wake and a stalled lane).
        for (std::size_t c = 0; c < n.channels_.size(); ++c) {
            const FlitChannel &ch = *n.channels_[c];
            struct Need
            {
                bool need;
                int sink;
                const char *what;
            } needs[2] = {
                {ch.flitsInFlight() > 0, chanFlitSink_[c], "flit"},
                {ch.creditsInFlight() > 0, chanCreditSink_[c],
                 "credit"},
            };
            for (const Need &nd : needs) {
                if (!nd.need)
                    continue;
                bool found = false;
                for (int s = 0; s < wheelSize_ && !found; ++s) {
                    const std::uint64_t *wh = self->wheelSlot(s, l);
                    found = (wh[nd.sink >> 6] >>
                             (nd.sink & 63)) & 1;
                }
                if (!found) {
                    std::ostringstream oss;
                    oss << "lane " << l << " channel " << c
                        << ": in-flight " << nd.what
                        << " with no wake for router " << nd.sink;
                    err = oss.str();
                    return false;
                }
            }
        }
    }
    return true;
}

// --- batched run driver ----------------------------------------------------

std::vector<SimResult>
runBatchedSimulation(BatchedNetwork &bn,
                     const std::vector<BatchLaneSim> &lanes)
{
    SNOC_ASSERT(static_cast<int>(lanes.size()) == bn.numLanes(),
                "one schedule per lane");
    // Lanes never interact, so each runs its whole schedule before
    // the next starts: one lane's routers, channels and queues stay
    // cache-resident instead of every lane's state streaming through
    // the cache on every cycle.
    std::vector<SimResult> results;
    results.reserve(lanes.size());
    for (int l = 0; l < bn.numLanes(); ++l) {
        const BatchLaneSim &lane = lanes[static_cast<std::size_t>(l)];
        RunSchedule run(bn.lane(l), lane.source, lane.cfg);
        while (run.next())
            bn.step(std::uint64_t{1} << l);
        results.push_back(run.result());
    }
    return results;
}

} // namespace snoc
