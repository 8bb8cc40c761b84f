#include "workload/closed_loop.hh"

#include "common/log.hh"

namespace snoc {

namespace {

/** Decorrelate per-node RNG streams from one base seed. */
std::uint64_t
nodeSeed(std::uint64_t seed, int node)
{
    return seed ^ (0x9e3779b97f4a7c15ULL *
                   static_cast<std::uint64_t>(node + 1));
}

} // namespace

ClosedLoopState::ClosedLoopState(std::shared_ptr<TrafficPattern> pattern,
                                 const ClosedLoopSpec &spec,
                                 std::uint64_t seed)
    : pattern_(std::move(pattern)), spec_(spec), seed_(seed),
      chainRng_(seed ^ 0xc0ffee5eedULL)
{
    SNOC_ASSERT(pattern_ != nullptr, "null traffic pattern");
    SNOC_ASSERT(spec_.window >= 1 && spec_.requestSizeFlits >= 1 &&
                    spec_.replySizeFlits >= 1 &&
                    spec_.forwardSizeFlits >= 1 && spec_.memoryDelay >= 1,
                "bad closed-loop spec");
    SNOC_ASSERT(spec_.issueProb >= 0.0 && spec_.issueProb <= 1.0 &&
                    spec_.forwardFraction >= 0.0 &&
                    spec_.forwardFraction <= 1.0,
                "closed-loop probabilities out of [0, 1]");
}

void
ClosedLoopState::attach(Network &net)
{
    if (net_ != nullptr) {
        SNOC_ASSERT(net_ == &net,
                    "closed-loop source reused across networks");
        return;
    }
    net_ = &net;
    int n = net.topology().numNodes();
    outstanding_.assign(n, 0);
    nodeRng_.reserve(n);
    for (int node = 0; node < n; ++node)
        nodeRng_.emplace_back(nodeSeed(seed_, node));
    // Chain the callbacks installed before us (e.g. the test suite's
    // invariant checker) instead of clobbering them.
    DeliveryCallback prevDeliver = net.deliveryCallback();
    net.setDeliveryCallback([this, prevDeliver](const Packet &p) {
        if (prevDeliver)
            prevDeliver(p);
        handleDeliver(p);
    });
    DropCallback prevDrop = net.dropCallback();
    net.setDropCallback([this, prevDrop](const Packet &p) {
        if (prevDrop)
            prevDrop(p);
        handleDrop(p);
    });
}

std::uint32_t
ClosedLoopState::allocSlot(int requester, Cycle now)
{
    std::uint32_t idx;
    if (!freeSlots_.empty()) {
        idx = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[idx] = Slot{requester, now, true};
    ++outstanding_[requester];
    ++liveSlots_;
    return idx;
}

void
ClosedLoopState::freeSlot(std::uint32_t index)
{
    Slot &s = slots_[index];
    SNOC_ASSERT(s.live, "freeing a dead closed-loop slot");
    --outstanding_[s.requester];
    --liveSlots_;
    s.live = false;
    freeSlots_.push_back(index);
}

bool
ClosedLoopState::pump(Network &net, Cycle now)
{
    attach(net);
    // Offer chain continuations that came due. Scheduling appends in
    // nondecreasing `at` order (constant memoryDelay over a
    // nondecreasing delivery clock), so the queue front is always
    // the earliest message.
    while (!pending_.empty() && pending_.front().at <= now) {
        PendingMsg m = pending_.front();
        pending_.pop_front();
        net.offerPacket(m.src, m.dst, m.size, m.cls, m.tag);
    }

    bool issuing = spec_.stopAfterRequests == 0 ||
                   issued_ < spec_.stopAfterRequests;
    SimCounters &c = net.workloadCounters();
    int n = net.topology().numNodes();
    for (int src = 0; src < n; ++src) {
        c.clWindowOccupancy +=
            static_cast<std::uint64_t>(outstanding_[src]);
        if (outstanding_[src] >= spec_.window) {
            ++c.clStallNodeCycles;
            continue;
        }
        if (!issuing)
            continue;
        Rng &rng = nodeRng_[src];
        if (!rng.nextBool(spec_.issueProb))
            continue;
        int dst = pattern_->destination(src, rng);
        std::uint32_t slot = allocSlot(src, now);
        ++issued_;
        ++c.clRequestsIssued;
        net.offerPacket(src, dst, spec_.requestSizeFlits,
                        MsgClass::ReadReq, slot + 1);
        // An offer-time fault refusal fires the drop callback
        // synchronously and has already purged the slot again here.
        if (issuing && spec_.stopAfterRequests != 0 &&
            issued_ >= spec_.stopAfterRequests)
            issuing = false;
    }
    return issuing || !pending_.empty() || liveSlots_ > 0;
}

void
ClosedLoopState::handleDeliver(const Packet &p)
{
    if (p.tag == 0)
        return; // not ours (e.g. a coexisting synthetic source)
    std::uint32_t idx = p.tag - 1;
    SNOC_ASSERT(idx < slots_.size() && slots_[idx].live,
                "closed-loop delivery for a dead window slot");
    Slot &s = slots_[idx];
    switch (p.msgClass) {
      case MsgClass::ReadReq: {
        // Request reached the home node: after the memory latency it
        // either replies directly or forwards to a dirty owner.
        int home = p.dstNode;
        bool forward = spec_.forwardFraction > 0.0 &&
                       chainRng_.nextBool(spec_.forwardFraction);
        int owner = -1;
        if (forward) {
            owner = pattern_->destination(home, chainRng_);
            if (owner == s.requester)
                forward = false; // owner == requester: local hit
        }
        Cycle at = p.ejectedAt + spec_.memoryDelay;
        if (forward)
            pending_.push_back({at, home, owner, p.tag,
                                MsgClass::Coherence,
                                spec_.forwardSizeFlits});
        else
            pending_.push_back({at, home, s.requester, p.tag,
                                MsgClass::Reply, spec_.replySizeFlits});
        break;
      }
      case MsgClass::Coherence:
        // Forward reached the owner, which sends the data reply.
        pending_.push_back({p.ejectedAt + spec_.memoryDelay, p.dstNode,
                            s.requester, p.tag, MsgClass::Reply,
                            spec_.replySizeFlits});
        break;
      case MsgClass::Reply: {
        SimCounters &c = net_->workloadCounters();
        c.clReqLatencySum += p.ejectedAt - s.issuedAt;
        ++c.clRepliesMatched;
        freeSlot(idx);
        break;
      }
      default:
        SNOC_PANIC("unexpected message class on a tagged packet");
    }
}

void
ClosedLoopState::handleDrop(const Packet &p)
{
    if (p.tag == 0)
        return;
    std::uint32_t idx = p.tag - 1;
    SNOC_ASSERT(idx < slots_.size() && slots_[idx].live,
                "closed-loop drop for a dead window slot");
    // Any purged leg kills the whole chain: free the slot so the
    // requester does not deadlock waiting for a reply that will
    // never come.
    ++net_->workloadCounters().clSlotsPurged;
    freeSlot(idx);
}

ClosedLoopSource
makeClosedLoopSource(std::shared_ptr<TrafficPattern> pattern,
                     const ClosedLoopSpec &spec, std::uint64_t seed)
{
    auto state =
        std::make_shared<ClosedLoopState>(std::move(pattern), spec, seed);
    TrafficSource source = [state](Network &net, Cycle now) -> bool {
        return state->pump(net, now);
    };
    return {std::move(source), std::move(state)};
}

} // namespace snoc
