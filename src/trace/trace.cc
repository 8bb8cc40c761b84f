#include "trace/trace.hh"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/log.hh"
#include "common/rng.hh"

namespace snoc {

int
TraceEvent::sizeFor(MsgClass cls)
{
    switch (cls) {
      case MsgClass::ReadReq:
      case MsgClass::Coherence:
        return 2;
      case MsgClass::WriteReq:
      case MsgClass::Reply:
        return 6;
      case MsgClass::Generic:
        return 6;
    }
    return 6;
}

std::vector<TraceEvent>
generateTrace(const WorkloadProfile &profile, const NocTopology &topo,
              Cycle cycles, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TraceEvent> events;
    const int n = topo.numNodes();
    SNOC_ASSERT(n >= 2, "trace needs >= 2 nodes");

    // Precompute, per node, a small neighborhood of nodes on the same
    // or adjacent routers for locality-directed messages.
    std::vector<std::vector<int>> nearby(static_cast<std::size_t>(n));
    for (int node = 0; node < n; ++node) {
        int r = topo.routerOfNode(node);
        auto addRouterNodes = [&](int router) {
            int first = topo.firstNodeOfRouter(router);
            for (int i = 0; i < topo.concentrationOf(router); ++i) {
                if (first + i != node)
                    nearby[static_cast<std::size_t>(node)].push_back(
                        first + i);
            }
        };
        addRouterNodes(r);
        for (int nb : topo.routers().neighbors(r))
            addRouterNodes(nb);
    }

    // Per-node burst state: remaining packets of the current burst
    // and the burst's destination.
    std::vector<int> burstLeft(static_cast<std::size_t>(n), 0);
    std::vector<int> burstDst(static_cast<std::size_t>(n), 0);

    double pStart = profile.packetsPerNodeCycle / profile.burstiness;
    for (Cycle c = 0; c < cycles; ++c) {
        for (int node = 0; node < n; ++node) {
            bool fire = false;
            int dst = 0;
            if (burstLeft[static_cast<std::size_t>(node)] > 0) {
                fire = true;
                dst = burstDst[static_cast<std::size_t>(node)];
                --burstLeft[static_cast<std::size_t>(node)];
            } else if (rng.nextBool(pStart)) {
                // New burst: pick a destination once; the burst
                // reuses it (spatial locality of streaming access).
                const auto &near =
                    nearby[static_cast<std::size_t>(node)];
                if (!near.empty() && rng.nextBool(profile.locality)) {
                    dst = near[static_cast<std::size_t>(rng.nextUint(
                        near.size()))];
                } else {
                    dst = static_cast<int>(rng.nextUint(
                        static_cast<std::uint64_t>(n - 1)));
                    if (dst >= node)
                        ++dst;
                }
                int len = static_cast<int>(rng.nextGeometric(
                    1.0 / profile.burstiness));
                fire = true;
                burstDst[static_cast<std::size_t>(node)] = dst;
                burstLeft[static_cast<std::size_t>(node)] = len - 1;
            }
            if (!fire)
                continue;
            double roll = rng.nextDouble();
            MsgClass cls;
            if (roll < profile.readFraction)
                cls = MsgClass::ReadReq;
            else if (roll < profile.readFraction + profile.writeFraction)
                cls = MsgClass::WriteReq;
            else
                cls = MsgClass::Coherence;
            events.push_back({c, node, dst, cls});
        }
    }
    return events;
}

TrafficSource
makeTraceSource(std::vector<TraceEvent> events, Cycle memoryDelay)
{
    // Shared mutable replay state captured by the source lambda.
    struct State
    {
        std::vector<TraceEvent> events;
        std::size_t next = 0;
        // Replies scheduled (cycle, src, dst), kept cycle-sorted.
        std::deque<TraceEvent> replies;
        bool callbackInstalled = false;
    };
    auto st = std::make_shared<State>();
    st->events = std::move(events);
    SNOC_ASSERT(std::is_sorted(st->events.begin(), st->events.end(),
                               [](const TraceEvent &a,
                                  const TraceEvent &b) {
                                   return a.cycle < b.cycle;
                               }),
                "trace must be cycle-sorted");

    return [st, memoryDelay](Network &net, Cycle now) -> bool {
        if (!st->callbackInstalled) {
            st->callbackInstalled = true;
            net.setDeliveryCallback([st, memoryDelay,
                                     &net](const Packet &pkt) {
                if (pkt.msgClass != MsgClass::ReadReq)
                    return;
                // The destination serves the read after the memory
                // delay and returns a 6-flit reply.
                TraceEvent reply;
                reply.cycle = net.now() + memoryDelay;
                reply.srcNode = pkt.dstNode;
                reply.dstNode = pkt.srcNode;
                reply.msgClass = MsgClass::Reply;
                st->replies.push_back(reply);
            });
        }
        while (st->next < st->events.size() &&
               st->events[st->next].cycle <= now) {
            const TraceEvent &e = st->events[st->next];
            net.offerPacket(e.srcNode, e.dstNode,
                            TraceEvent::sizeFor(e.msgClass),
                            e.msgClass);
            ++st->next;
        }
        while (!st->replies.empty() &&
               st->replies.front().cycle <= now) {
            const TraceEvent &e = st->replies.front();
            net.offerPacket(e.srcNode, e.dstNode,
                            TraceEvent::sizeFor(e.msgClass),
                            e.msgClass);
            st->replies.pop_front();
        }
        return st->next < st->events.size() || !st->replies.empty();
    };
}

SimResult
runWorkload(Network &net, const WorkloadProfile &profile, Cycle cycles,
            std::uint64_t seed)
{
    auto events = generateTrace(profile, net.topology(), cycles, seed);
    TrafficSource src = makeTraceSource(std::move(events));
    SimConfig cfg;
    cfg.warmupCycles = cycles / 10;
    cfg.measureCycles = cycles;
    cfg.drain = true;
    return runSimulation(net, src, cfg);
}

} // namespace snoc
