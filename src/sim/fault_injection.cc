/**
 * @file
 * The Network's fault-injection and degraded-operation machinery,
 * plus the structural invariant audit used by the test suite.
 *
 * Everything here is the *rare* path: it runs once per fault event
 * (and per audit call), never per cycle, so clarity wins over
 * allocation thrift. The per-cycle hot path only pays a single
 * `faultsArmed_` branch when no plan is active.
 *
 * Fault semantics
 * ---------------
 * Events fire at the start of the cycle named by `FaultEvent::at`,
 * before that cycle's injection. Applying a batch of events:
 *
 *  1. dead/alive flags update (a channel is alive iff its link is
 *     not explicitly LinkDown'ed and both endpoint routers live);
 *  2. the live router graph is rebuilt and one path table is built
 *     over it (BFS over the degraded graph — per fault event, never
 *     per cycle), which the Network and its routing scheme share;
 *     the topology's fault-free table stays untouched;
 *  3. the purge: packets that a fault *cut* (a flit on a dead
 *     channel / in a dead router, or a committed next hop through a
 *     dead port) and packets whose destination became disconnected
 *     are removed everywhere — their flits are dropped and counted,
 *     the credits they occupied are returned upstream through the
 *     normal credit wires, VC ownership is released, and their pool
 *     slots are recycled;
 *  4. source queues are re-screened: packets at dead routers or with
 *     disconnected destinations are refused; everything else simply
 *     re-routes around the dead ports at injection, because
 *     source-queue packets are not yet bound to a path.
 *
 * Wormhole subtlety: body flits never consult routing tables — they
 * follow the VC-ownership chain their head established. The purge
 * therefore kills by *committed path*: an input VC routed toward a
 * dead output identifies its current packet (`InputVc::curPkt`) even
 * when the buffer has drained ahead of the tail. Conversely, a
 * packet whose committed path is intact always has a live physical
 * path to its destination, so the reachability rule only fires on
 * genuine disconnection.
 */

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/log.hh"
#include "sim/network.hh"

namespace snoc {

namespace {

/** Why a purged packet dies (kill-flag values). */
constexpr std::uint8_t kAlive = 0;
constexpr std::uint8_t kCut = 1;        //!< severed by a dead element
constexpr std::uint8_t kUnroutable = 2; //!< destination disconnected

} // namespace

// --- arming -----------------------------------------------------------------

void
Network::armFaults(const FaultPlan &faults)
{
    faultsArmed_ = true;
    faultEvents_ = faults.resolve(topo_->routers());

    const Graph &g = topo_->routers();
    for (const FaultEvent &e : faultEvents_) {
        SNOC_ASSERT(e.a >= 0 && e.a < g.numVertices(),
                    "fault event router out of range");
        if (e.kind == FaultEvent::Kind::LinkDown ||
            e.kind == FaultEvent::Kind::LinkUp) {
            SNOC_ASSERT(e.b >= 0 && e.b < g.numVertices(),
                        "fault event router out of range");
            if (!g.hasEdge(e.a, e.b))
                fatal("fault plan names link ", e.a, "--", e.b,
                      " which does not exist in ", topo_->name());
        }
    }

    linkDead_.assign(channels_.size(), 0);
    routerLive_.assign(routers_.size(), 1);
    chanIndexByPtr_.clear();
    for (std::size_t c = 0; c < channels_.size(); ++c)
        chanIndexByPtr_[channels_[c].get()] = c;
    // Nothing is dead yet, so the topology's table (paths_) already
    // is the live graph's: the first fault event builds a new one.
    rebuildLiveGraph();
}

bool
Network::channelAlive(std::size_t chan) const
{
    return !linkDead_[chan] &&
           routerLive_[static_cast<std::size_t>(
               chanCreditSink_[chan])] &&
           routerLive_[static_cast<std::size_t>(chanFlitSink_[chan])];
}

const Graph &
Network::liveTopology() const
{
    return faultsArmed_ ? *liveGraph_ : topo_->routers();
}

bool
Network::routerAlive(int router) const
{
    return !faultsArmed_ ||
           routerLive_[static_cast<std::size_t>(router)] != 0;
}

bool
Network::offerBlockedByFaults(int srcRouter, int dstRouter)
{
    if (!routerLive_[static_cast<std::size_t>(srcRouter)] ||
        !routerLive_[static_cast<std::size_t>(dstRouter)] ||
        paths_->distance(srcRouter, dstRouter) < 0) {
        ++counters_->packetsRefused;
        return true;
    }
    return false;
}

void
Network::rebuildLiveGraph()
{
    liveGraph_ =
        std::make_unique<Graph>(topo_->routers().numVertices());
    // Every channel is one directed adjacency entry; taking the
    // u < v direction of each pair restores the undirected edge set
    // (parallel edges die together with their pair, so multiplicity
    // survives intact on live pairs).
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        int u = chanCreditSink_[c];
        int v = chanFlitSink_[c];
        if (u < v && channelAlive(c))
            liveGraph_->addEdge(u, v);
    }
}

// --- event application ------------------------------------------------------

void
Network::applyPendingFaults()
{
    if (faultCursor_ >= faultEvents_.size() ||
        faultEvents_[faultCursor_].at > now_)
        return;

    bool anyChange = false;
    bool anyDown = false;
    auto setLink = [&](int a, int b, std::uint8_t dead) {
        for (std::size_t c = 0; c < channels_.size(); ++c) {
            int u = chanCreditSink_[c];
            int v = chanFlitSink_[c];
            if (((u == a && v == b) || (u == b && v == a)) &&
                linkDead_[c] != dead) {
                linkDead_[c] = dead;
                anyChange = true;
                anyDown |= dead != 0;
            }
        }
    };

    while (faultCursor_ < faultEvents_.size() &&
           faultEvents_[faultCursor_].at <= now_) {
        const FaultEvent &e = faultEvents_[faultCursor_++];
        ++counters_->faultEvents;
        switch (e.kind) {
          case FaultEvent::Kind::LinkDown:
            setLink(e.a, e.b, 1);
            break;
          case FaultEvent::Kind::LinkUp:
            setLink(e.a, e.b, 0);
            break;
          case FaultEvent::Kind::RouterDown:
            if (routerLive_[static_cast<std::size_t>(e.a)]) {
                routerLive_[static_cast<std::size_t>(e.a)] = 0;
                anyChange = true;
                anyDown = true;
            }
            break;
          case FaultEvent::Kind::RouterUp:
            if (!routerLive_[static_cast<std::size_t>(e.a)]) {
                routerLive_[static_cast<std::size_t>(e.a)] = 1;
                anyChange = true;
            }
            break;
        }
    }
    if (!anyChange)
        return;

    rebuildLiveGraph();
    // One live table, shared with the routing scheme. It is built
    // from liveGraph_ itself because MinAdaptiveRouting's candidate
    // order follows that graph's adjacency order.
    paths_ = std::make_shared<const ShortestPaths>(*liveGraph_);
    routing_->onTopologyChange(paths_);
    if (anyDown)
        purgeAfterFaults();
}

// --- the purge --------------------------------------------------------------

void
Network::purgeAfterFaults()
{
    std::vector<std::uint8_t> kill(pool_->capacity(), kAlive);
    std::vector<PacketHandle> killedList;
    auto markKill = [&](PacketHandle h, std::uint8_t reason) {
        if (kill[h] == kAlive) {
            kill[h] = reason;
            killedList.push_back(h);
        } else if (reason == kCut) {
            // A packet can match both rules (e.g. a cut that is also
            // a graph cut); "cut" outranks "unroutable" so the
            // classification is independent of discovery order.
            kill[h] = kCut;
        }
    };
    auto killed = [&](const Flit &f) { return kill[f.pkt] != kAlive; };
    auto chanAliveByPtr = [&](const FlitChannel *ch) {
        auto it = chanIndexByPtr_.find(ch);
        SNOC_ASSERT(it != chanIndexByPtr_.end(), "unmapped channel");
        return channelAlive(it->second);
    };

    // Reachability of `h`'s remaining journey when its next table
    // lookup happens at `atRouter`. May replan (clear) a Valiant
    // detour whose intermediate became unreachable.
    auto unroutableFrom = [&](PacketHandle h, int atRouter) -> bool {
        Packet &p = pool_->get(h);
        if (p.valiantRouter >= 0 && p.phase == 0) {
            bool detourDead =
                paths_->distance(atRouter, p.valiantRouter) < 0 ||
                paths_->distance(p.valiantRouter, p.dstRouter) < 0;
            if (!detourDead)
                return false;
            if (paths_->distance(atRouter, p.dstRouter) < 0)
                return true;
            p.valiantRouter = -1; // fall back to the minimal path
            ++counters_->packetsRerouted;
            return false;
        }
        return paths_->distance(atRouter, p.dstRouter) < 0;
    };

    // -- discovery: flits parked on channels --
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        bool dead = !channelAlive(c);
        int sink = chanFlitSink_[c];
        channels_[c]->forEachFlit([&](const Flit &f) {
            if (dead)
                markKill(f.pkt, kCut);
            else if (kill[f.pkt] == kAlive &&
                     unroutableFrom(f.pkt, sink))
                markKill(f.pkt, kUnroutable);
        });
    }

    // -- discovery: flits and committed paths inside routers --
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        Router &rt = *routers_[r];
        bool deadRouter = routerLive_[r] == 0;

        for (const Router::InputPort &ip : rt.inputs_) {
            for (const Router::InputVc &ivc : ip.vcs) {
                if (ivc.routed) {
                    // Committed next hop through a dead port cuts
                    // the packet even if its flits sit elsewhere.
                    bool outDead = deadRouter;
                    if (!outDead && ivc.outPort < rt.numNetPorts_)
                        outDead = !chanAliveByPtr(
                            rt.outputs_[static_cast<std::size_t>(
                                            ivc.outPort)]
                                .out);
                    if (outDead)
                        markKill(ivc.curPkt, kCut);
                }
                for (std::size_t i = 0; i < ivc.buffer.size(); ++i) {
                    const Flit &f = ivc.buffer[i];
                    if (deadRouter)
                        markKill(f.pkt, kCut);
                    else if (kill[f.pkt] == kAlive &&
                             unroutableFrom(f.pkt,
                                            static_cast<int>(r)))
                        markKill(f.pkt, kUnroutable);
                }
            }
        }

        for (std::size_t qi = 0; qi < rt.cbQueues_.size(); ++qi) {
            const Router::CbQueue &q = rt.cbQueues_[qi];
            int port = static_cast<int>(qi) / rt.numVcs_;
            bool qDead = deadRouter;
            if (!qDead && port < rt.numNetPorts_)
                qDead = !chanAliveByPtr(
                    rt.outputs_[static_cast<std::size_t>(port)].out);
            for (std::size_t i = 0; i < q.flits.size(); ++i) {
                const Flit &f = q.flits[i];
                if (qDead)
                    markKill(f.pkt, kCut);
                else if (port < rt.numNetPorts_ &&
                         kill[f.pkt] == kAlive &&
                         unroutableFrom(f.pkt, static_cast<int>(r)))
                    markKill(f.pkt, kUnroutable);
            }
            if (qDead && q.appender != kInvalidPacket)
                markKill(q.appender, kCut);
        }

        if (deadRouter) {
            for (int portIdx : rt.localPorts_) {
                const auto &ej =
                    rt.outputs_[static_cast<std::size_t>(portIdx)]
                        .ejectionQueue;
                for (std::size_t i = 0; i < ej.size(); ++i)
                    markKill(ej[i].pkt, kCut);
            }
        }
    }

    // -- sweep: channels (credits for never-delivered flits return
    //    over the normal credit wire, keeping per-VC conservation) --
    std::vector<Flit> removedScratch;
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        removedScratch.clear();
        channels_[c]->purgeFlits(killed, removedScratch);
        for (const Flit &f : removedScratch) {
            ++counters_->flitsDropped;
            channels_[c]->pushCredit(f.vc, now_);
        }
    }

    // -- sweep: routers --
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        Router &rt = *routers_[r];

        for (std::size_t p = 0; p < rt.inputs_.size(); ++p) {
            Router::InputPort &ip = rt.inputs_[p];
            for (std::size_t v = 0; v < ip.vcs.size(); ++v) {
                Router::InputVc &ivc = ip.vcs[v];
                int removed = static_cast<int>(
                    ivc.buffer.removeIf([&](const Flit &f) {
                        if (!killed(f))
                            return false;
                        if (ip.in)
                            ip.in->pushCredit(static_cast<int>(v),
                                              now_);
                        return true;
                    }));
                counters_->flitsDropped +=
                    static_cast<std::uint64_t>(removed);
                rt.bufferedFlits_ -= removed;
                if (ivc.routed && kill[ivc.curPkt] != kAlive) {
                    if (ivc.viaCb)
                        rt.cbReserved_ -= ivc.flitsLeft;
                    ivc.routed = false;
                    ivc.viaCb = false;
                    ivc.flitsLeft = 0;
                    ivc.curPkt = kInvalidPacket;
                }
            }
        }

        for (auto &q : rt.cbQueues_) {
            int removed = static_cast<int>(q.flits.removeIf(killed));
            counters_->flitsDropped +=
                static_cast<std::uint64_t>(removed);
            rt.bufferedFlits_ -= removed;
            rt.cbOccupied_ -= removed;
            rt.cbReserved_ -= removed;
            if (q.appender != kInvalidPacket &&
                kill[q.appender] != kAlive)
                q.appender = kInvalidPacket;
        }

        for (Router::OutputPort &op : rt.outputs_) {
            // A dead owner can never send its tail; free the VC for
            // surviving traffic (covers both input- and CB-owned).
            for (Router::OutputVc &ovc : op.vcs)
                if (ovc.owner.pkt != kInvalidPacket &&
                    kill[ovc.owner.pkt] != kAlive)
                    ovc.owner = Router::VcOwner();
            if (op.node >= 0) {
                int removed = static_cast<int>(
                    op.ejectionQueue.removeIf(killed));
                counters_->flitsDropped +=
                    static_cast<std::uint64_t>(removed);
                rt.bufferedFlits_ -= removed;
            }
        }
    }

    // -- source queues: refuse what can no longer be injected --
    std::vector<PacketHandle> queued;
    for (int node = 0; node < topo_->numNodes(); ++node) {
        auto &q = sourceQueues_[static_cast<std::size_t>(node)];
        if (q.empty())
            continue;
        int r = topo_->routerOfNode(node);
        queued.clear();
        while (!q.empty()) {
            queued.push_back(q.front());
            q.pop_front();
        }
        for (PacketHandle h : queued) {
            if (!routerLive_[static_cast<std::size_t>(r)] ||
                unroutableFrom(h, r)) {
                ++counters_->packetsRefused;
                if (onDrop_)
                    onDrop_(pool_->get(h));
                pool_->release(h);
            } else {
                q.push_back(h);
            }
        }
    }

    // -- recycle the dead --
    for (PacketHandle h : killedList) {
        if (kill[h] == kCut)
            ++counters_->packetsDropped;
        else
            ++counters_->packetsUnroutable;
        if (onDrop_)
            onDrop_(pool_->get(h));
        pool_->release(h);
    }

    // The sweep rewrote buffers, routing state, and VC ownership
    // wholesale; rebuild the incremental sweep masks and requester
    // refcounts from scratch. (The per-neighbor occupancy counters
    // need no repair: purged credits return over the normal credit
    // wires, so `depth - credits` accounting never broke.)
    for (auto &r : routers_)
        r->rebuildSweepState();
}

// --- structural invariant audit --------------------------------------------

bool
Network::auditInvariants(std::string &err) const
{
    std::ostringstream oss;
    auto fail = [&](const std::string &what) {
        err = what;
        return false;
    };

    for (std::size_t r = 0; r < routers_.size(); ++r) {
        const Router &rt = *routers_[r];

        // Buffered-flit recount vs the incremental counter.
        long long flits = 0;
        for (const Router::InputPort &ip : rt.inputs_) {
            for (const Router::InputVc &ivc : ip.vcs) {
                if (static_cast<int>(ivc.buffer.size()) >
                    ivc.capacity) {
                    oss << "router " << rt.id_
                        << ": input VC over capacity ("
                        << ivc.buffer.size() << " > " << ivc.capacity
                        << ")";
                    return fail(oss.str());
                }
                flits += static_cast<long long>(ivc.buffer.size());
            }
        }
        long long cbFlits = 0;
        for (const auto &q : rt.cbQueues_)
            cbFlits += static_cast<long long>(q.flits.size());
        flits += cbFlits;
        for (const Router::OutputPort &op : rt.outputs_)
            if (op.node >= 0)
                flits +=
                    static_cast<long long>(op.ejectionQueue.size());
        if (flits != rt.bufferedFlits_) {
            oss << "router " << rt.id_ << ": bufferedFlits "
                << rt.bufferedFlits_ << " != recount " << flits;
            return fail(oss.str());
        }

        if (rt.cfg_.arch == RouterArch::CentralBuffer) {
            if (cbFlits != rt.cbOccupied_) {
                oss << "router " << rt.id_ << ": cbOccupied "
                    << rt.cbOccupied_ << " != recount " << cbFlits;
                return fail(oss.str());
            }
            long long viaCbLeft = 0;
            for (const Router::InputPort &ip : rt.inputs_)
                for (const Router::InputVc &ivc : ip.vcs)
                    if (ivc.routed && ivc.viaCb)
                        viaCbLeft += ivc.flitsLeft;
            if (rt.cbReserved_ != rt.cbOccupied_ + viaCbLeft) {
                oss << "router " << rt.id_ << ": cbReserved "
                    << rt.cbReserved_ << " != occupied "
                    << rt.cbOccupied_ << " + pending " << viaCbLeft;
                return fail(oss.str());
            }
            if (rt.cbReserved_ < 0 ||
                rt.cbReserved_ > rt.cbCapacity_) {
                oss << "router " << rt.id_
                    << ": cbReserved out of bounds ("
                    << rt.cbReserved_ << " / " << rt.cbCapacity_
                    << ")";
                return fail(oss.str());
            }
        }

        // Incremental per-neighbor occupancy counters vs a
        // from-scratch recount over credits (with the cached
        // downstream depth cross-checked against the config
        // formula it memoizes).
        std::vector<int> occRecount(routers_.size(), 0);
        for (int p = 0; p < rt.numNetPorts_; ++p) {
            const Router::OutputPort &op =
                rt.outputs_[static_cast<std::size_t>(p)];
            int depth =
                routerCfg_.inputBufferDepth(op.out->latency()) +
                routerCfg_.elasticBonus(op.out->latency());
            if (op.downstreamDepth != depth) {
                oss << "router " << rt.id_ << " port " << p
                    << ": cached downstreamDepth "
                    << op.downstreamDepth << " != config depth "
                    << depth;
                return fail(oss.str());
            }
            for (const Router::OutputVc &ovc : op.vcs)
                occRecount[static_cast<std::size_t>(op.neighbor)] +=
                    depth - ovc.credits;
        }
        for (std::size_t v = 0; v < occRecount.size(); ++v) {
            if (rt.occToward_[v] != occRecount[v]) {
                oss << "router " << rt.id_ << ": occToward["
                    << v << "] " << rt.occToward_[v]
                    << " != recount " << occRecount[v];
                return fail(oss.str());
            }
        }

        // Incremental sweep masks / requester refcounts vs a
        // from-scratch scan.
        const std::size_t numVcs = static_cast<std::size_t>(rt.numVcs_);
        std::vector<std::uint16_t> reqRecount(rt.reqCount_.size(), 0);
        for (std::size_t p = 0; p < rt.inputs_.size(); ++p) {
            const Router::InputPort &ip = rt.inputs_[p];
            std::uint64_t occMask = 0;
            for (std::size_t v = 0; v < ip.vcs.size(); ++v) {
                const Router::InputVc &ivc = ip.vcs[v];
                if (!ivc.buffer.empty())
                    occMask |= std::uint64_t{1} << v;
                if (ivc.routed && !ivc.viaCb)
                    ++reqRecount[static_cast<std::size_t>(ivc.outPort) *
                                     numVcs +
                                 static_cast<std::size_t>(ivc.outVc)];
            }
            if (ip.occMask != occMask) {
                oss << "router " << rt.id_ << " input port " << p
                    << ": occMask " << ip.occMask
                    << " != recount " << occMask;
                return fail(oss.str());
            }
        }
        if (rt.reqCount_ != reqRecount) {
            oss << "router " << rt.id_
                << ": requester refcounts diverged from recount";
            return fail(oss.str());
        }
        for (std::size_t p = 0; p < rt.outputs_.size(); ++p) {
            const Router::OutputPort &op = rt.outputs_[p];
            std::uint64_t owned = 0;
            std::uint64_t req = 0;
            std::uint64_t cb = 0;
            for (std::size_t v = 0; v < op.vcs.size(); ++v) {
                if (op.vcs[v].owner.kind != Router::VcOwner::Kind::None)
                    owned |= std::uint64_t{1} << v;
                if (reqRecount[p * numVcs + v] > 0)
                    req |= std::uint64_t{1} << v;
            }
            if (rt.cfg_.arch == RouterArch::CentralBuffer)
                for (std::size_t v = 0; v < op.vcs.size(); ++v)
                    if (!rt.cbQueues_[p * numVcs + v].flits.empty())
                        cb |= std::uint64_t{1} << v;
            if (op.ownedMask != owned || op.reqMask != req ||
                op.cbMask != cb) {
                oss << "router " << rt.id_ << " output port " << p
                    << ": sweep masks diverged (owned "
                    << op.ownedMask << "/" << owned << ", req "
                    << op.reqMask << "/" << req << ", cb "
                    << op.cbMask << "/" << cb << ")";
                return fail(oss.str());
            }
        }

        // Per-VC credit conservation on every outgoing link:
        //   depth - credits == flits on the wire + flits buffered
        //                      downstream + credits returning.
        for (int p = 0; p < rt.numNetPorts_; ++p) {
            const Router::OutputPort &op =
                rt.outputs_[static_cast<std::size_t>(p)];
            const FlitChannel *ch = op.out;
            int depth = routerCfg_.inputBufferDepth(ch->latency()) +
                        routerCfg_.elasticBonus(ch->latency());
            const Router &down =
                *routers_[static_cast<std::size_t>(op.neighbor)];
            const Router::InputPort &dip =
                down.inputs_[static_cast<std::size_t>(op.peerPort)];
            if (dip.in != ch || dip.peerPort != p) {
                oss << "router " << rt.id_ << " port " << p
                    << ": peer port " << op.peerPort << " of router "
                    << op.neighbor << " is not this channel's input";
                return fail(oss.str());
            }
            for (std::size_t vc = 0; vc < op.vcs.size(); ++vc) {
                int credits = op.vcs[vc].credits;
                if (credits < 0 || credits > depth) {
                    oss << "router " << rt.id_ << " port " << p
                        << " vc " << vc << ": credits " << credits
                        << " outside [0, " << depth << "]";
                    return fail(oss.str());
                }
                std::size_t outstanding =
                    static_cast<std::size_t>(depth - credits);
                std::size_t accounted =
                    ch->flitsInFlightOnVc(static_cast<int>(vc)) +
                    dip.vcs[vc].buffer.size() +
                    ch->creditsInFlightOnVc(static_cast<int>(vc));
                if (outstanding != accounted) {
                    oss << "router " << rt.id_ << " port " << p
                        << " vc " << vc << ": " << outstanding
                        << " outstanding credits but " << accounted
                        << " accounted (wire + downstream buffer + "
                           "returning)";
                    return fail(oss.str());
                }
            }
        }
    }
    // A ShardedNetwork drives the routers with the calendar detached;
    // it is rebuilt from scratch when the shards let go.
    if (calendarAttached_ && !auditCalendar(err))
        return false;
    err.clear();
    return true;
}

bool
Network::auditCalendar(std::string &err) const
{
    std::ostringstream oss;
    WakeCalendar &cal = *cal_;
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        const Router &rt = *routers_[r];
        int id = static_cast<int>(r);
        if (WakeCalendar::test(cal.queued(), id) !=
            (rt.bufferedFlits_ > 0)) {
            oss << "calendar: router " << id << " queued bit "
                << WakeCalendar::test(cal.queued(), id)
                << " but bufferedFlits " << rt.bufferedFlits_;
            err = oss.str();
            return false;
        }
        // Every in-flight flit (credit) must have its router bit and
        // its input (output) port bit at its arrival slot.
        auto marked = [&](int port, Cycle at, int side) {
            at = std::max(at, now_);
            return WakeCalendar::test(cal.wheel(at), id) &&
                   WakeCalendar::test(cal.ports(at, id) + side, port);
        };
        for (int p = 0; p < rt.numNetPorts_; ++p) {
            const FlitChannel &in =
                *rt.inputs_[static_cast<std::size_t>(p)].in;
            for (std::size_t i = 0; i < in.flitsInFlight(); ++i) {
                if (!marked(p, in.flitArrival(i), 0)) {
                    oss << "calendar: flit arriving at cycle "
                        << in.flitArrival(i) << " on router " << id
                        << " input port " << p << " has no wake";
                    err = oss.str();
                    return false;
                }
            }
            const FlitChannel &out =
                *rt.outputs_[static_cast<std::size_t>(p)].out;
            for (std::size_t i = 0; i < out.creditsInFlight(); ++i) {
                if (!marked(p, out.creditArrival(i), cal.portWords())) {
                    oss << "calendar: credit arriving at cycle "
                        << out.creditArrival(i) << " on router " << id
                        << " output port " << p << " has no wake";
                    err = oss.str();
                    return false;
                }
            }
        }
    }
    for (int node = 0; node < topo_->numNodes(); ++node) {
        bool pending = WakeCalendar::test(cal.pending(), node);
        const auto &q = sourceQueues_[static_cast<std::size_t>(node)];
        if (pending != !q.empty()) {
            oss << "calendar: node " << node << " pending bit "
                << pending << " but source queue depth " << q.size();
            err = oss.str();
            return false;
        }
    }
    return true;
}

} // namespace snoc
