#include "sim/router.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "sim/network.hh"

namespace snoc {

Router::Router(int id, const RouterConfig &cfg,
               RoutingAlgorithm &routing, PacketPool &pool,
               SimCounters &counters)
    : id_(id), cfg_(cfg), routing_(&routing), pool_(&pool),
      counters_(&counters)
{
    numVcs_ = cfg_.numVcs > 0 ? cfg_.numVcs : routing.numVcs();
    SNOC_ASSERT(numVcs_ >= routing.numVcs(),
                "router has fewer VCs than the routing scheme needs");
    if (numVcs_ > 64)
        fatal("router ", id_, " needs ", numVcs_,
              " VCs; the per-port VC masks hold at most 64");
}

int
Router::addNetworkPort(FlitChannel *out, FlitChannel *in, int neighbor,
                       int peerPort, int wireLength)
{
    SNOC_ASSERT(localPorts_.empty(),
                "add network ports before local ports");
    InputPort ip;
    ip.in = in;
    ip.neighbor = neighbor;
    ip.peerPort = peerPort;
    int depth = cfg_.inputBufferDepth(in->latency()) +
                cfg_.elasticBonus(in->latency());
    ip.vcs.resize(static_cast<std::size_t>(numVcs_));
    for (auto &vc : ip.vcs) {
        vc.capacity = depth;
        vc.buffer.reserve(static_cast<std::size_t>(depth));
    }
    // Credit flow control bounds the channel's in-flight flits (and
    // returning credits) by our input buffering; pre-reserve the
    // rings so steady-state link traffic never allocates. Every
    // channel is exactly one router's `in`, so this covers them all.
    std::size_t bound = static_cast<std::size_t>(numVcs_) *
                        static_cast<std::size_t>(depth);
    in->reserveFlits(bound);
    in->reserveCredits(bound);
    inputs_.push_back(std::move(ip));

    OutputPort op;
    op.out = out;
    op.neighbor = neighbor;
    op.peerPort = peerPort;
    op.wireLength = wireLength;
    op.vcs.resize(static_cast<std::size_t>(numVcs_));
    // Credits cover the downstream input buffer, whose depth mirrors
    // ours (same strategy, same link latency both directions). The
    // depth is cached so occupancy bookkeeping never recomputes the
    // buffer-strategy formula.
    op.downstreamDepth = cfg_.inputBufferDepth(out->latency()) +
                         cfg_.elasticBonus(out->latency());
    for (auto &vc : op.vcs)
        vc.credits = op.downstreamDepth;
    outputs_.push_back(std::move(op));

    ++numNetPorts_;
    return numNetPorts_ - 1;
}

int
Router::addLocalPort(int node)
{
    InputPort ip;
    ip.node = node;
    ip.vcs.resize(1);
    ip.vcs[0].capacity = cfg_.injectionQueueFlits;
    ip.vcs[0].buffer.reserve(
        static_cast<std::size_t>(cfg_.injectionQueueFlits));
    inputs_.push_back(std::move(ip));

    OutputPort op;
    op.node = node;
    op.vcs.resize(static_cast<std::size_t>(numVcs_));
    op.ejectionCapacity = cfg_.ejectionQueueFlits;
    op.ejectionQueue.reserve(
        static_cast<std::size_t>(cfg_.ejectionQueueFlits));
    outputs_.push_back(std::move(op));

    int port = static_cast<int>(inputs_.size()) - 1;
    localPorts_.push_back(port);
    return port;
}

void
Router::finalize(int numRouters)
{
    SNOC_ASSERT(inputs_.size() == outputs_.size(),
                "ports are added input/output-paired");
    inputBusy_.assign(inputs_.size(), false);
    if (cfg_.arch == RouterArch::CentralBuffer) {
        cbCapacity_ = cfg_.centralBufferFlits;
        cbQueues_.resize(outputs_.size() *
                         static_cast<std::size_t>(numVcs_));
        for (auto &q : cbQueues_)
            q.flits.reserve(static_cast<std::size_t>(cbCapacity_));
    }
    // Arrival scratch: one port is drained at a time, so the bound is
    // the largest per-port buffering (flits) / credit backlog.
    std::size_t maxPort = 0;
    for (const auto &ip : inputs_) {
        std::size_t cap = 0;
        for (const auto &vc : ip.vcs)
            cap += static_cast<std::size_t>(vc.capacity);
        maxPort = std::max(maxPort, cap);
    }
    flitScratch_.reserve(maxPort);
    creditScratch_.reserve(maxPort);

    // Per-neighbor occupancy counters start at zero (credits full).
    SNOC_ASSERT(numRouters > id_, "numRouters too small");
    occToward_.assign(static_cast<std::size_t>(numRouters), 0);

    // Neighbor -> ports index (CSR over neighbor id), ports ascending
    // within each neighbor group: resolveOutPort picks the same port
    // the old linear scan did, in O(1).
    nbrFirst_.assign(static_cast<std::size_t>(numRouters), 0);
    nbrCount_.assign(static_cast<std::size_t>(numRouters), 0);
    for (int p = 0; p < numNetPorts_; ++p)
        ++nbrCount_[static_cast<std::size_t>(
            outputs_[static_cast<std::size_t>(p)].neighbor)];
    int run = 0;
    for (int v = 0; v < numRouters; ++v) {
        nbrFirst_[static_cast<std::size_t>(v)] = run;
        run += nbrCount_[static_cast<std::size_t>(v)];
    }
    nbrPorts_.assign(static_cast<std::size_t>(numNetPorts_), -1);
    std::vector<int> fill = nbrFirst_;
    for (int p = 0; p < numNetPorts_; ++p)
        nbrPorts_[static_cast<std::size_t>(
            fill[static_cast<std::size_t>(
                outputs_[static_cast<std::size_t>(p)].neighbor)]++)] =
            p;

    reqCount_.assign(outputs_.size() *
                         static_cast<std::size_t>(numVcs_),
                     0);
}

Router::CbQueue &
Router::cbQueue(int port, int vc)
{
    return cbQueues_[static_cast<std::size_t>(port) *
                         static_cast<std::size_t>(numVcs_) +
                     static_cast<std::size_t>(vc)];
}

int
Router::injectionSpace(int localIndex) const
{
    int port = localPorts_[static_cast<std::size_t>(localIndex)];
    const InputVc &vc = inputs_[static_cast<std::size_t>(port)].vcs[0];
    return vc.capacity - static_cast<int>(vc.buffer.size());
}

void
Router::injectFlit(int localIndex, Flit flit)
{
    int port = localPorts_[static_cast<std::size_t>(localIndex)];
    InputPort &ip = inputs_[static_cast<std::size_t>(port)];
    InputVc &vc = ip.vcs[0];
    SNOC_ASSERT(static_cast<int>(vc.buffer.size()) < vc.capacity,
                "injection queue overflow");
    vc.buffer.push_back(flit);
    markVcOccupied(ip, 0);
    ++bufferedFlits_;
    ++counters_->bufferWrites;
}

void
Router::collectArrivals(Cycle now, const std::uint64_t *inMask,
                        const std::uint64_t *outMask)
{
    const int words = (numNetPorts_ + 63) >> 6;
    for (int w = 0; w < words; ++w) {
        for (std::uint64_t m = inMask[w]; m; m &= m - 1) {
            InputPort &ip = inputs_[static_cast<std::size_t>(
                (w << 6) + std::countr_zero(m))];
            flitScratch_.clear();
            ip.in->popArrivedFlits(now, flitScratch_);
            for (const Flit &flit : flitScratch_) {
                InputVc &vc = ip.vcs[static_cast<std::size_t>(flit.vc)];
                SNOC_ASSERT(static_cast<int>(vc.buffer.size()) <
                                vc.capacity,
                            "credit protocol violated: input VC "
                            "overflow at router ", id_);
                vc.buffer.push_back(flit);
                markVcOccupied(ip, flit.vc);
                ++bufferedFlits_;
                ++counters_->bufferWrites;
            }
        }
    }
    for (int w = 0; w < words; ++w) {
        for (std::uint64_t m = outMask[w]; m; m &= m - 1) {
            OutputPort &op = outputs_[static_cast<std::size_t>(
                (w << 6) + std::countr_zero(m))];
            creditScratch_.clear();
            op.out->popArrivedCredits(now, creditScratch_);
            occToward_[static_cast<std::size_t>(op.neighbor)] -=
                static_cast<int>(creditScratch_.size());
            for (int vc : creditScratch_)
                ++op.vcs[static_cast<std::size_t>(vc)].credits;
        }
    }
}

void
Router::routeHeads(Cycle now)
{
    (void)now;
    auto routeVc = [this](InputPort &ip, std::size_t v) {
        InputVc &ivc = ip.vcs[v];
        if (ivc.routed)
            return;
        const Flit &head = ivc.buffer.front();
        if (!head.head)
            return; // stale body flit; handled by flitsLeft
        Packet &pkt = pool_->get(head.pkt);
        RouteDecision rd = routing_->route(id_, pkt);
        ivc.routed = true;
        ivc.viaCb = false;
        ivc.flitsLeft = pkt.sizeFlits;
        ivc.curPkt = head.pkt;
        if (rd.nextRouter < 0) {
            // Eject to the local port of the destination node.
            int slot = -1;
            for (std::size_t l = 0; l < localPorts_.size(); ++l) {
                int port = localPorts_[l];
                if (outputs_[static_cast<std::size_t>(port)].node ==
                    pkt.dstNode) {
                    slot = port;
                    break;
                }
            }
            SNOC_ASSERT(slot >= 0, "destination node ",
                        pkt.dstNode, " not on router ", id_);
            ivc.outPort = slot;
            ivc.outVc = 0;
        } else {
            SNOC_ASSERT(rd.vc >= 0 && rd.vc < numVcs_,
                        "routing chose invalid VC");
            ivc.outPort = resolveOutPort(rd.nextRouter, rd.vc);
            ivc.outVc = rd.vc;
        }
        addRequest(ivc.outPort, ivc.outVc);
    };

    for (InputPort &ip : inputs_)
        for (std::uint64_t m = ip.occMask; m; m &= m - 1)
            routeVc(ip, static_cast<std::size_t>(std::countr_zero(m)));
}

int
Router::resolveOutPort(int nextRouter, int vcForTieBreak) const
{
    // Parallel links to the same neighbor: spread VCs across them.
    int count = nbrCount_[static_cast<std::size_t>(nextRouter)];
    SNOC_ASSERT(count > 0, "router ", id_, " has no port toward ",
                nextRouter);
    const int *ports =
        &nbrPorts_[static_cast<std::size_t>(
            nbrFirst_[static_cast<std::size_t>(nextRouter)])];
    if (count == 1)
        return ports[0];
    return ports[vcForTieBreak % count];
}

bool
Router::cbIntakeFrom(InputPort &ip, int p, int v, Cycle now)
{
    InputVc &ivc = ip.vcs[static_cast<std::size_t>(v)];
    CbQueue &q = cbQueue(ivc.outPort, ivc.outVc);
    PacketHandle pkt = ivc.buffer.front().pkt;
    if (q.appender != kInvalidPacket && q.appender != pkt)
        return false; // another packet mid-append to this queue
    Flit flit = ivc.buffer.front();
    ivc.buffer.pop_front();
    markVcDrained(ip, v);
    ++counters_->bufferReads;
    ++counters_->cbWrites;
    ++cbOccupied_;
    // Count down the packet's flits not yet through the CB;
    // keeps cbReserved_ == cbOccupied_ + sum of viaCb
    // flitsLeft, the invariant the fault purge and the test
    // audit rely on. (The bypass path in tryGrantOutputVc
    // already decrements per flit.)
    --ivc.flitsLeft;
    q.appender = flit.tail ? kInvalidPacket : pkt;
    bool tail = flit.tail;
    q.flits.push_back(flit);
    outputs_[static_cast<std::size_t>(ivc.outPort)].cbMask |=
        std::uint64_t{1} << ivc.outVc;
    if (ip.in)
        returnCredit(ip, v, now);
    inputBusy_[static_cast<std::size_t>(p)] = true;
    cbInputBusy_ = true;
    if (tail) {
        // Input VC is free for the next packet.
        ivc.routed = false;
        ivc.flitsLeft = 0;
    }
    return true;
}

void
Router::cbIntake(Cycle now)
{
    if (cfg_.arch != RouterArch::CentralBuffer || cbInputBusy_)
        return;
    // Single CB input port: move at most one flit per cycle from an
    // input VC that holds a CB-assigned packet. Round-robin over
    // input ports for fairness, phase-locked to the cycle counter
    // (see switchAllocate).
    int n = static_cast<int>(inputs_.size());
    int base = static_cast<int>((now + 1) %
                                static_cast<Cycle>(n));
    for (int k = 0; k < n; ++k) {
        int p = (base + k) % n;
        InputPort &ip = inputs_[static_cast<std::size_t>(p)];
        if (inputBusy_[static_cast<std::size_t>(p)])
            continue;
        for (std::uint64_t m = ip.occMask; m; m &= m - 1) {
            int v = std::countr_zero(m);
            const InputVc &ivc = ip.vcs[static_cast<std::size_t>(v)];
            if (!ivc.routed || !ivc.viaCb)
                continue;
            if (cbIntakeFrom(ip, p, v, now))
                return;
        }
    }
}

void
Router::step(Cycle now)
{
    std::fill(inputBusy_.begin(), inputBusy_.end(), false);
    cbOutputBusy_ = false;
    cbInputBusy_ = false;

    routeHeads(now);
    switchAllocate(now);
    if (cfg_.arch == RouterArch::CentralBuffer) {
        cbDivert(now);
        cbIntake(now);
    }
}

void
Router::switchAllocate(Cycle now)
{
    int numOutputs = static_cast<int>(outputs_.size());
    if (numOutputs == 0)
        return;
    // The rotating start pointer used to be a member incremented every
    // step; deriving it from `now` is bit-identical (step runs once
    // per cycle from cycle 0) and lets the Network skip idle routers
    // without perturbing arbitration.
    int base = static_cast<int>(now % static_cast<Cycle>(numOutputs));
    for (int k = 0; k < numOutputs; ++k) {
        int port = (base + k) % numOutputs;
        tryGrantOutput(port, now);
    }
}

bool
Router::tryGrantOutput(int port, Cycle now)
{
    OutputPort &op = outputs_[static_cast<std::size_t>(port)];
    // A VC can act only if it is owned, requested by a routed input
    // VC, or backed by buffered CB flits; trying any other VC is a
    // provable no-op. Visit candidates in the exact round-robin
    // order rrVc, rrVc+1, ..., rrVc-1.
    std::uint64_t cand = op.ownedMask | op.reqMask | op.cbMask;
    if (!cand)
        return false;
    int r = op.rrVc;
    for (std::uint64_t m = cand >> r; m; m &= m - 1)
        if (tryGrantOutputVc(port, r + std::countr_zero(m), now))
            return true;
    for (std::uint64_t m = cand & ((std::uint64_t{1} << r) - 1); m;
         m &= m - 1)
        if (tryGrantOutputVc(port, std::countr_zero(m), now))
            return true;
    return false;
}

bool
Router::tryGrantOutputVc(int port, int vc, Cycle now)
{
    OutputPort &op = outputs_[static_cast<std::size_t>(port)];
    bool isLocal = op.out == nullptr;
    OutputVc &ovc = op.vcs[static_cast<std::size_t>(vc)];

    // Shared bookkeeping for every grant path: releasing VC
    // ownership must clear the owned mask bit, and draining a CB
    // queue must keep cbMask, the CB counters, and the single-drain
    // busy flag in step — one copy each so they cannot desync.
    auto releaseOwner = [&] {
        ovc.owner = VcOwner();
        op.ownedMask &= ~(std::uint64_t{1} << vc);
    };
    auto popCbAndSend = [&](CbQueue &q) {
        Flit flit = q.flits.front();
        q.flits.pop_front();
        if (q.flits.empty())
            op.cbMask &= ~(std::uint64_t{1} << vc);
        ++counters_->cbReads;
        --cbOccupied_;
        --cbReserved_;
        cbOutputBusy_ = true;
        bool tail = flit.tail;
        sendFlit(port, vc, flit, now, true);
        if (tail)
            releaseOwner();
        op.rrVc = (vc + 1) % numVcs_;
    };

    // Downstream space check.
    if (isLocal) {
        if (static_cast<int>(op.ejectionQueue.size()) >=
            op.ejectionCapacity)
            return false;
    } else if (ovc.credits <= 0) {
        return false;
    }

    // Owned VC: only its owner may send.
    if (ovc.owner.kind == VcOwner::Kind::Input) {
        InputPort &ip = inputs_[static_cast<std::size_t>(
            ovc.owner.inputPort)];
        if (inputBusy_[static_cast<std::size_t>(
                ovc.owner.inputPort)])
            return false;
        InputVc &ivc = ip.vcs[static_cast<std::size_t>(
            ovc.owner.inputVc)];
        if (ivc.buffer.empty() || ivc.flitsLeft <= 0)
            return false;
        int ownerVc = ovc.owner.inputVc;
        int ownerPort = ovc.owner.inputPort;
        Flit flit = ivc.buffer.front();
        ivc.buffer.pop_front();
        markVcDrained(ip, ownerVc);
        ++counters_->bufferReads;
        if (ip.in)
            returnCredit(ip, ownerVc, now);
        inputBusy_[static_cast<std::size_t>(ownerPort)] = true;
        --ivc.flitsLeft;
        bool tail = flit.tail;
        sendFlit(port, vc, flit, now, false);
        if (tail) {
            releaseOwner();
            ivc.routed = false;
            dropRequest(port, vc);
        }
        op.rrVc = (vc + 1) % numVcs_;
        return true;
    }
    if (ovc.owner.kind == VcOwner::Kind::Cb) {
        if (cbOutputBusy_)
            return false;
        CbQueue &q = cbQueue(port, vc);
        if (q.flits.empty())
            return false;
        popCbAndSend(q);
        return true;
    }

    // Unowned: grant to a requesting head flit. CB queues get
    // priority (they are "part of the output buffer").
    if (cfg_.arch == RouterArch::CentralBuffer && !cbOutputBusy_) {
        CbQueue &q = cbQueue(port, vc);
        if (!q.flits.empty() && q.flits.front().head) {
            ovc.owner.kind = VcOwner::Kind::Cb;
            ovc.owner.pkt = q.flits.front().pkt;
            op.ownedMask |= std::uint64_t{1} << vc;
            popCbAndSend(q);
            return true;
        }
    }

    int numInputs = static_cast<int>(inputs_.size());
    auto tryRequester = [&](int ipIdx, std::size_t v) -> bool {
        InputPort &ip = inputs_[static_cast<std::size_t>(ipIdx)];
        InputVc &ivc = ip.vcs[v];
        if (!ivc.routed || ivc.viaCb)
            return false;
        if (ivc.outPort != port || ivc.outVc != vc)
            return false;
        const Flit &front = ivc.buffer.front();
        if (!front.head)
            return false;

        // CBR path choice: on an output conflict the packet
        // is diverted into the CB if space allows.
        // (Reaching here means the VC is free, so this is
        // the bypass path.)
        Flit flit = ivc.buffer.front();
        ivc.buffer.pop_front();
        markVcDrained(ip, static_cast<int>(v));
        ++counters_->bufferReads;
        if (ip.in)
            returnCredit(ip, static_cast<int>(v), now);
        inputBusy_[static_cast<std::size_t>(ipIdx)] = true;
        --ivc.flitsLeft;
        ovc.owner.kind = VcOwner::Kind::Input;
        ovc.owner.inputPort = ipIdx;
        ovc.owner.inputVc = static_cast<int>(v);
        ovc.owner.pkt = flit.pkt;
        op.ownedMask |= std::uint64_t{1} << vc;
        ++pool_->get(flit.pkt).hops;
        bool tail = flit.tail;
        sendFlit(port, vc, flit, now, false);
        if (tail) {
            releaseOwner();
            ivc.routed = false;
            dropRequest(port, vc);
        }
        op.rrInput = (ipIdx + 1) % numInputs;
        op.rrVc = (vc + 1) % numVcs_;
        return true;
    };

    for (int ki = 0; ki < numInputs; ++ki) {
        int ipIdx = (op.rrInput + ki) % numInputs;
        if (inputBusy_[static_cast<std::size_t>(ipIdx)])
            continue;
        InputPort &ip = inputs_[static_cast<std::size_t>(ipIdx)];
        for (std::uint64_t m = ip.occMask; m; m &= m - 1)
            if (tryRequester(ipIdx, static_cast<std::size_t>(
                                        std::countr_zero(m))))
                return true;
    }

    return false;
}

void
Router::cbDivert(Cycle now)
{
    (void)now;
    // Section 4.1: on a conflict at the output port a packet takes
    // the central-buffer path. A head conflicts when its output VC
    // is owned by another packet or has no downstream space; a free
    // VC that merely lost this cycle's arbitration keeps trying the
    // bypass.
    auto considerVc = [this](InputPort &ip, std::size_t ipIdx,
                             std::size_t v) {
        InputVc &ivc = ip.vcs[v];
        if (!ivc.routed || ivc.viaCb)
            return;
        if (!ivc.buffer.front().head)
            return;
        OutputPort &op =
            outputs_[static_cast<std::size_t>(ivc.outPort)];
        OutputVc &ovc =
            op.vcs[static_cast<std::size_t>(ivc.outVc)];
        bool downstreamSpace =
            op.out ? ovc.credits > 0
                   : static_cast<int>(op.ejectionQueue.size()) <
                         op.ejectionCapacity;
        bool ownedByMe =
            ovc.owner.kind == VcOwner::Kind::Input &&
            ovc.owner.inputPort == static_cast<int>(ipIdx) &&
            &ip.vcs[static_cast<std::size_t>(
                ovc.owner.inputVc)] == &ivc;
        if (ownedByMe ||
            (ovc.owner.kind == VcOwner::Kind::None &&
             downstreamSpace)) {
            return; // bypass is (still) available
        }
        Packet &pkt = pool_->get(ivc.buffer.front().pkt);
        if (cbReserved_ + pkt.sizeFlits > cbCapacity_)
            return; // CB full; wait
        cbReserved_ += pkt.sizeFlits;
        ivc.viaCb = true;
        dropRequest(ivc.outPort, ivc.outVc);
        ++pkt.hops;
    };

    for (std::size_t ipIdx = 0; ipIdx < inputs_.size(); ++ipIdx) {
        InputPort &ip = inputs_[ipIdx];
        for (std::uint64_t m = ip.occMask; m; m &= m - 1)
            considerVc(ip, ipIdx,
                       static_cast<std::size_t>(std::countr_zero(m)));
    }
}

void
Router::sendFlit(int port, int vc, Flit flit, Cycle now, bool fromCb)
{
    OutputPort &op = outputs_[static_cast<std::size_t>(port)];
    ++counters_->crossbarTraversals;
    ++op.flitsSent;
    flit.vc = vc;
    if (op.out) {
        --op.vcs[static_cast<std::size_t>(vc)].credits;
        ++occToward_[static_cast<std::size_t>(op.neighbor)];
        --bufferedFlits_; // leaves this router for the wire
        counters_->linkFlitHops +=
            static_cast<std::uint64_t>(op.wireLength);
        // The router pipeline (2-cycle bypass; the CB path's extra
        // queue stages emerge from the CB intake/drain cycles) is
        // added as a constant so arrivals stay monotonic per channel.
        Cycle at = op.out->pushFlit(flit, now, cfg_.pipelineCycles - 1);
        if (cal_)
            cal_->markFlit(op.neighbor, op.peerPort, at);
    } else {
        op.ejectionQueue.push_back(flit);
    }
    (void)fromCb;
}

void
Router::returnCredit(const InputPort &ip, int vc, Cycle now)
{
    Cycle at = ip.in->pushCredit(vc, now);
    if (cal_)
        cal_->markCredit(ip.neighbor, ip.peerPort, at);
}

void
Router::drainEjection(Cycle now, std::vector<PacketHandle> &delivered)
{
    for (int portIdx : localPorts_) {
        OutputPort &op = outputs_[static_cast<std::size_t>(portIdx)];
        if (op.ejectionQueue.empty())
            continue;
        Flit flit = op.ejectionQueue.front();
        op.ejectionQueue.pop_front();
        --bufferedFlits_;
        ++counters_->flitsDelivered;
        if (flit.tail) {
            pool_->get(flit.pkt).ejectedAt = now;
            ++counters_->packetsDelivered;
            delivered.push_back(flit.pkt);
        }
    }
}

void
Router::rebuildSweepState()
{
    std::fill(reqCount_.begin(), reqCount_.end(), 0);
    for (OutputPort &op : outputs_) {
        op.ownedMask = 0;
        op.reqMask = 0;
        op.cbMask = 0;
        for (std::size_t v = 0; v < op.vcs.size(); ++v)
            if (op.vcs[v].owner.kind != VcOwner::Kind::None)
                op.ownedMask |= std::uint64_t{1} << v;
    }
    for (InputPort &ip : inputs_) {
        ip.occMask = 0;
        for (std::size_t v = 0; v < ip.vcs.size(); ++v) {
            const InputVc &ivc = ip.vcs[v];
            if (!ivc.buffer.empty())
                ip.occMask |= std::uint64_t{1} << v;
            if (ivc.routed && !ivc.viaCb)
                addRequest(ivc.outPort, ivc.outVc);
        }
    }
    if (cfg_.arch == RouterArch::CentralBuffer) {
        for (std::size_t qi = 0; qi < cbQueues_.size(); ++qi) {
            if (cbQueues_[qi].flits.empty())
                continue;
            std::size_t port = qi / static_cast<std::size_t>(numVcs_);
            std::size_t vc = qi % static_cast<std::size_t>(numVcs_);
            outputs_[port].cbMask |= std::uint64_t{1} << vc;
        }
    }
}

std::uint64_t
Router::portFlitsSent(int port) const
{
    SNOC_ASSERT(port >= 0 &&
                    port < static_cast<int>(outputs_.size()),
                "port out of range");
    return outputs_[static_cast<std::size_t>(port)].flitsSent;
}

int
Router::portNeighbor(int port) const
{
    SNOC_ASSERT(port >= 0 && port < numNetPorts_, "not a net port");
    return outputs_[static_cast<std::size_t>(port)].neighbor;
}

} // namespace snoc
