#include "sim/network.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace snoc {

WakeCalendar::WakeCalendar(int routers, int portWords, int nodes,
                           int horizon)
    : routers_(static_cast<std::size_t>(routers)),
      routerWords_((routers + 63) / 64), portWords_(portWords),
      nodeWords_((nodes + 63) / 64)
{
    // Pushes land 1..horizon cycles ahead, so with more slots than
    // the horizon the slot being visited is never written meanwhile.
    std::size_t slots =
        std::bit_ceil(static_cast<std::size_t>(horizon) + 1);
    mask_ = static_cast<Cycle>(slots - 1);
    portsAt_ = slots * rw();
    queuedAt_ = portsAt_ + slots * routers_ * 2 * pw();
    bits_.assign(queuedAt_ + 2 * rw() +
                     static_cast<std::size_t>(nodeWords_),
                 0);
}

Network::Network(const NocTopology &topo, const RouterConfig &router,
                 const LinkConfig &link, RoutingMode mode,
                 std::uint64_t seed, const FaultPlan &faults)
    : Network(std::make_shared<const NocTopology>(topo), router, link,
              mode, seed, faults)
{
}

Network::Network(std::shared_ptr<const NocTopology> topo,
                 const RouterConfig &router, const LinkConfig &link,
                 RoutingMode mode, std::uint64_t seed,
                 const FaultPlan &faults)
    : topo_(std::move(topo)), routerCfg_(router), linkCfg_(link)
{
    SNOC_ASSERT(topo_ != nullptr, "null shared topology");
    SNOC_ASSERT(linkCfg_.hopsPerCycle >= 1, "H must be >= 1");
    build(seed, mode, faults);
}

int
Network::linkLatencyFor(int distance) const
{
    int d = std::max(distance, 1);
    return (d + linkCfg_.hopsPerCycle - 1) / linkCfg_.hopsPerCycle;
}

void
Network::build(std::uint64_t seed, RoutingMode mode,
               const FaultPlan &faults)
{
    // A flit sent at cycle t must land at t + 1 or later: the
    // calendar has already visited cycle t's arrivals.
    SNOC_ASSERT(routerCfg_.pipelineCycles >= 1,
                "router pipeline must be >= 1 cycle");
    routing_ = makeRouting(*topo_, mode, seed, faults.active());
    paths_ = topo_->paths();

    const Graph &g = topo_->routers();
    routers_.reserve(static_cast<std::size_t>(g.numVertices()));
    for (int r = 0; r < g.numVertices(); ++r) {
        routers_.push_back(std::make_unique<Router>(
            r, routerCfg_, *routing_, *pool_, *counters_));
    }

    // Create one channel pair per directed adjacency entry. Port k of
    // router u pairs with the matching occurrence of u in v's list,
    // which keeps parallel edges consistent.
    // channelTo[u][k]: channel from u along its k-th adjacency entry.
    std::vector<std::vector<FlitChannel *>> channelTo(
        static_cast<std::size_t>(g.numVertices()));
    int maxLatency = 1;
    int maxNetPorts = 0;
    for (int u = 0; u < g.numVertices(); ++u) {
        const auto &nb = g.neighbors(u);
        channelTo[static_cast<std::size_t>(u)].resize(nb.size());
        maxNetPorts = std::max(maxNetPorts, static_cast<int>(nb.size()));
        for (std::size_t k = 0; k < nb.size(); ++k) {
            int lat = linkLatencyFor(
                topo_->placement().distance(u, nb[k]));
            maxLatency = std::max(maxLatency, lat);
            channels_.push_back(std::make_unique<FlitChannel>(lat));
            channelTo[static_cast<std::size_t>(u)][k] =
                channels_.back().get();
            // Channel u -> nb[k]: its flits wake the downstream
            // router, its returning credits wake the sender.
            chanFlitSink_.push_back(nb[k]);
            chanCreditSink_.push_back(u);
        }
    }
    // Pair directed channels into bidirectional ports.
    for (int u = 0; u < g.numVertices(); ++u) {
        const auto &nbU = g.neighbors(u);
        // occurrence index of v within u's list so far
        std::vector<int> seen(static_cast<std::size_t>(g.numVertices()),
                              0);
        for (std::size_t k = 0; k < nbU.size(); ++k) {
            int v = nbU[k];
            int occ = seen[static_cast<std::size_t>(v)]++;
            // Find the occ-th occurrence of u in v's list.
            const auto &nbV = g.neighbors(v);
            int found = -1;
            int c = 0;
            for (std::size_t k2 = 0; k2 < nbV.size(); ++k2) {
                if (nbV[k2] == u) {
                    if (c == occ) {
                        found = static_cast<int>(k2);
                        break;
                    }
                    ++c;
                }
            }
            SNOC_ASSERT(found >= 0, "asymmetric adjacency");
            FlitChannel *out = channelTo[static_cast<std::size_t>(u)]
                                        [k];
            FlitChannel *in = channelTo[static_cast<std::size_t>(v)]
                                       [static_cast<std::size_t>(found)];
            routers_[static_cast<std::size_t>(u)]->addNetworkPort(
                out, in, v, found, topo_->placement().distance(u, v));
        }
    }

    // Local ports.
    localSlot_.resize(static_cast<std::size_t>(topo_->numNodes()));
    sourceQueues_.resize(static_cast<std::size_t>(topo_->numNodes()));
    for (int r = 0; r < g.numVertices(); ++r) {
        int first = topo_->firstNodeOfRouter(r);
        for (int i = 0; i < topo_->concentrationOf(r); ++i) {
            routers_[static_cast<std::size_t>(r)]->addLocalPort(
                first + i);
            localSlot_[static_cast<std::size_t>(first + i)] = i;
        }
    }
    for (auto &r : routers_)
        r->finalize(g.numVertices());

    deliveredScratch_.reserve(
        static_cast<std::size_t>(topo_->numNodes()));
    cal_ = std::make_unique<WakeCalendar>(
        g.numVertices(), std::max((maxNetPorts + 63) / 64, 1),
        topo_->numNodes(), maxLatency + routerCfg_.pipelineCycles - 1);
    attachCalendar(true);

    if (faults.active())
        armFaults(faults);
}

void
Network::attachCalendar(bool attach)
{
    calendarAttached_ = attach;
    for (auto &r : routers_)
        r->cal_ = attach ? cal_.get() : nullptr;
    if (attach)
        rebuildCalendar();
}

void
Network::rebuildCalendar()
{
    WakeCalendar &cal = *cal_;
    cal.clear();
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        const Router &rt = *routers_[r];
        int id = static_cast<int>(r);
        if (rt.bufferedFlits() > 0)
            WakeCalendar::set(cal.queued(), id);
        for (int p = 0; p < rt.numNetPorts_; ++p) {
            const FlitChannel &in =
                *rt.inputs_[static_cast<std::size_t>(p)].in;
            for (std::size_t i = 0; i < in.flitsInFlight(); ++i)
                cal.markFlit(id, p, std::max(in.flitArrival(i), now_));
            const FlitChannel &out =
                *rt.outputs_[static_cast<std::size_t>(p)].out;
            for (std::size_t i = 0; i < out.creditsInFlight(); ++i)
                cal.markCredit(id, p,
                               std::max(out.creditArrival(i), now_));
        }
    }
    for (int node = 0; node < topo_->numNodes(); ++node)
        if (!sourceQueues_[static_cast<std::size_t>(node)].empty())
            WakeCalendar::set(cal.pending(), node);
}

void
Network::reservePackets(std::size_t packets)
{
    pool_->reserve(packets);
    if (sourceQueues_.empty())
        return;
    // `packets` bounds the *total* concurrent packets; give each
    // node's queue its share plus burst slack rather than the full
    // total (which would multiply the reservation by the node
    // count). An unusually bursty node grows its ring once — a
    // warmup event, not a steady-state one.
    std::size_t perQueue = packets / sourceQueues_.size() + 16;
    for (auto &q : sourceQueues_)
        q.reserve(perQueue);
}

void
Network::offerPacket(int srcNode, int dstNode, int sizeFlits,
                     MsgClass msgClass, std::uint32_t tag)
{
    SNOC_ASSERT(srcNode >= 0 && srcNode < topo_->numNodes() &&
                    dstNode >= 0 && dstNode < topo_->numNodes(),
                "node out of range");
    SNOC_ASSERT(srcNode != dstNode, "self-addressed packet");
    SNOC_ASSERT(sizeFlits >= 1, "empty packet");
    if (faultsArmed_ &&
        offerBlockedByFaults(topo_->routerOfNode(srcNode),
                             topo_->routerOfNode(dstNode))) {
        // Refused before a pool slot exists: synthesize a transient
        // Packet so the drop callback still sees src/dst/class/tag
        // (the workload layer frees the issuing window slot here).
        if (onDrop_) {
            Packet refused;
            refused.srcNode = srcNode;
            refused.dstNode = dstNode;
            refused.srcRouter = topo_->routerOfNode(srcNode);
            refused.dstRouter = topo_->routerOfNode(dstNode);
            refused.sizeFlits = sizeFlits;
            refused.msgClass = msgClass;
            refused.createdAt = now_;
            refused.tag = tag;
            onDrop_(refused);
        }
        return;
    }
    PacketHandle h = pool_->alloc();
    Packet &pkt = pool_->get(h);
    pkt.id = nextPacketId_++;
    pkt.srcNode = srcNode;
    pkt.dstNode = dstNode;
    pkt.srcRouter = topo_->routerOfNode(srcNode);
    pkt.dstRouter = topo_->routerOfNode(dstNode);
    pkt.sizeFlits = sizeFlits;
    pkt.msgClass = msgClass;
    pkt.createdAt = now_;
    pkt.tag = tag;
    routing_->onInject(pkt, *this);
    sourceQueues_[static_cast<std::size_t>(srcNode)].push_back(h);
    WakeCalendar::set(cal_->pending(), srcNode);
}

int
Network::pumpNode(int node, SimCounters &counters)
{
    auto &q = sourceQueues_[static_cast<std::size_t>(node)];
    if (q.empty())
        return 0;
    Router &r = *routers_[static_cast<std::size_t>(
        topo_->routerOfNode(node))];
    int slot = localSlot_[static_cast<std::size_t>(node)];
    int injected = 0;
    // Move whole packets only, keeping flits contiguous.
    while (!q.empty()) {
        Packet &pkt = pool_->get(q.front());
        if (r.injectionSpace(slot) < pkt.sizeFlits)
            break;
        PacketHandle h = q.front();
        q.pop_front();
        pkt.injectedAt = now_;
        for (int f = 0; f < pkt.sizeFlits; ++f) {
            Flit flit;
            flit.pkt = h;
            flit.head = f == 0;
            flit.tail = f == pkt.sizeFlits - 1;
            flit.vc = 0;
            r.injectFlit(slot, flit);
        }
        counters.flitsInjected +=
            static_cast<std::uint64_t>(pkt.sizeFlits);
        ++counters.packetsInjected;
        injected += pkt.sizeFlits;
    }
    return injected;
}

void
Network::step()
{
    SNOC_ASSERT(calendarAttached_,
                "step() on a Network a ShardedNetwork is driving");
    // Attach live queue state lazily: Network objects are movable,
    // so the pointer must be taken on the object that actually
    // steps, not on the one build() ran on.
    if (!stateAttached_) {
        routing_->attachState(*this);
        stateAttached_ = true;
    }
    if (faultsArmed_) {
        // A fired event purges buffers and channels and pushes
        // reclaim credits behind the calendar's back.
        std::size_t cursor = faultCursor_;
        applyPendingFaults();
        if (faultCursor_ != cursor)
            rebuildCalendar();
    }
    WakeCalendar &cal = *cal_;
    const int rw = cal.routerWords();
    const int pw = cal.portWords();

    // Injection: only nodes with queued packets, in ascending order.
    std::uint64_t *queued = cal.queued();
    std::uint64_t *pending = cal.pending();
    for (int w = 0; w < cal.nodeWords(); ++w) {
        for (std::uint64_t m = pending[w]; m; m &= m - 1) {
            int bit = std::countr_zero(m);
            int node = (w << 6) + bit;
            if (pumpNode(node, *counters_) > 0)
                WakeCalendar::set(queued, topo_->routerOfNode(node));
            if (sourceQueues_[static_cast<std::size_t>(node)].empty())
                pending[w] &= ~(std::uint64_t{1} << bit);
        }
    }

    // This cycle's visit set: routers with an arrival due (the slot
    // of `now`), plus those holding buffered flits.
    std::uint64_t *due = cal.wheel(now_);
    std::uint64_t *visit = cal.visit();
    for (int w = 0; w < rw; ++w)
        visit[w] = queued[w] | due[w];

    // Phase 1: absorb arrivals, reading only the flagged ports. Pushes
    // land 1..slots-1 cycles ahead, never in this slot, so the slot is
    // cleared once all of its rows have been read.
    for (int w = 0; w < rw; ++w) {
        for (std::uint64_t m = due[w]; m; m &= m - 1) {
            int r = (w << 6) + std::countr_zero(m);
            std::uint64_t *ports = cal.ports(now_, r);
            routers_[static_cast<std::size_t>(r)]->collectArrivals(
                now_, ports, ports + pw);
            for (int k = 0; k < 2 * pw; ++k)
                ports[k] = 0;
        }
    }
    for (int w = 0; w < rw; ++w)
        due[w] = 0;
    // Phase 2: route / allocate / send. Router::step() on a router
    // with nothing buffered is a provable no-op.
    for (int w = 0; w < rw; ++w) {
        for (std::uint64_t m = visit[w]; m; m &= m - 1) {
            Router &rt = *routers_[static_cast<std::size_t>(
                (w << 6) + std::countr_zero(m))];
            if (rt.bufferedFlits() > 0)
                rt.step(now_);
        }
    }
    // Phase 3: drain ejection, then refresh the queued bits: a
    // visit is the only place a router's buffers change, apart from
    // injection (which sets the bit above).
    deliveredScratch_.clear();
    lastVisited_ = 0;
    for (int w = 0; w < rw; ++w) {
        for (std::uint64_t m = visit[w]; m; m &= m - 1) {
            int bit = std::countr_zero(m);
            Router &rt = *routers_[static_cast<std::size_t>(
                (w << 6) + bit)];
            rt.drainEjection(now_, deliveredScratch_);
            if (rt.bufferedFlits() > 0)
                queued[w] |= std::uint64_t{1} << bit;
            else
                queued[w] &= ~(std::uint64_t{1} << bit);
            ++lastVisited_;
        }
    }
    processDelivered();
    ++now_;
}

void
Network::processDelivered()
{
    for (PacketHandle h : deliveredScratch_) {
        const Packet &pkt = pool_->get(h);
        latency_.add(static_cast<double>(pkt.ejectedAt -
                                         pkt.createdAt));
        netLatency_.add(static_cast<double>(pkt.ejectedAt -
                                            pkt.injectedAt));
        hops_.add(static_cast<double>(pkt.hops));
        winFlits_ += static_cast<std::uint64_t>(pkt.sizeFlits);
        if (onDeliver_)
            onDeliver_(pkt);
        pool_->release(h);
    }
}

std::uint64_t
Network::flitsInFlight() const
{
    std::uint64_t total = 0;
    for (const auto &r : routers_)
        total += static_cast<std::uint64_t>(r->bufferedFlits());
    for (const auto &c : channels_)
        total += c->flitsInFlight();
    return total;
}

std::uint64_t
Network::sourceQueueDepth() const
{
    std::uint64_t total = 0;
    for (const auto &q : sourceQueues_)
        total += q.size();
    return total;
}

void
Network::beginMeasurement()
{
    latency_.reset();
    netLatency_.reset();
    hops_.reset();
    winFlits_ = 0;
}

std::vector<Network::LinkUtilization>
Network::linkUtilization() const
{
    std::vector<LinkUtilization> out;
    double cycles = std::max<double>(1.0, static_cast<double>(now_));
    for (const auto &r : routers_) {
        for (int p = 0; p < r->numNetPorts(); ++p) {
            LinkUtilization lu;
            lu.routerA = r->id();
            lu.routerB = r->portNeighbor(p);
            lu.wireLength =
                topo_->placement().distance(lu.routerA, lu.routerB);
            lu.flitsPerCycle =
                static_cast<double>(r->portFlitsSent(p)) / cycles;
            out.push_back(lu);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const LinkUtilization &a, const LinkUtilization &b) {
                  return a.flitsPerCycle > b.flitsPerCycle;
              });
    return out;
}

int
Network::linkOccupancy(int router, int nextRouter) const
{
    return routers_[static_cast<std::size_t>(router)]
        ->linkOccupancyToward(nextRouter);
}

int
Network::pathOccupancy(int srcRouter, int dstRouter) const
{
    int occ = 0;
    int v = srcRouter;
    while (v != dstRouter) {
        int nh = paths_->nextHop(v, dstRouter);
        occ += linkOccupancy(v, nh);
        v = nh;
    }
    return occ;
}

} // namespace snoc
