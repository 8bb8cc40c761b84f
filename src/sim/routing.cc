#include "sim/routing.hh"

#include <algorithm>
#include <cstdlib>

#include "common/log.hh"
#include "common/registry.hh"

namespace snoc {

namespace {

/**
 * Shared base of the BFS-table schemes: they route from the
 * topology's fault-free ShortestPaths table, shared rather than
 * copied, and swap in the live table a fault event hands them.
 */
class TableRouting : public RoutingAlgorithm
{
  public:
    int numVcs() const override { return numVcs_; }
    int maxHops() const override { return maxHops_; }

    bool supportsFaults() const override { return true; }

    void
    onTopologyChange(std::shared_ptr<const ShortestPaths> live) override
    {
        // Degraded diameters may exceed numVcs; VC indices are
        // clamped in hopVc(), trading the strict VC ordering for
        // continued operation (see docs/ARCHITECTURE.md).
        paths_ = std::move(live);
    }

  protected:
    TableRouting(const NocTopology &topo, int numVcs, int maxHops)
        : paths_(topo.paths()), numVcs_(numVcs), maxHops_(maxHops)
    {
    }

    /** Hop-indexed VC: hop i uses VC min(i, numVcs - 1). */
    int
    hopVc(const Packet &packet) const
    {
        return std::min(packet.hops, numVcs_ - 1);
    }

    std::shared_ptr<const ShortestPaths> paths_;
    int numVcs_;
    int maxHops_;
};

/**
 * BFS-table static minimum routing with hop-indexed VCs.
 * Monotonically non-decreasing VCs along any path break all
 * channel-dependency cycles; with numVcs == diameter the assignment
 * is strictly increasing, the paper's VC0/VC1 scheme for diameter-2
 * Slim NoC.
 */
class TableMinimalRouting : public TableRouting
{
  public:
    TableMinimalRouting(const NocTopology &topo, int numVcs)
        : TableRouting(topo, numVcs, topo.diameter() + 1)
    {
        SNOC_ASSERT(numVcs_ >= topo.diameter(),
                    "hop-indexed VCs need numVcs >= diameter for "
                    "strict deadlock freedom (",
                    numVcs_, " < ", topo.diameter(), ")");
    }

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.dstRouter)
            return {-1, 0};
        return {paths_->nextHop(router, packet.dstRouter), hopVc(packet)};
    }
};

/** Shared grid helpers for the dimension-ordered schemes. */
class GridBase : public RoutingAlgorithm
{
  public:
    explicit GridBase(const NocTopology &topo)
        : cols_(topo.routingHint().cols), rows_(topo.routingHint().rows)
    {
        SNOC_ASSERT(cols_ >= 1 && rows_ >= 1, "grid hint missing");
        coords_.resize(static_cast<std::size_t>(topo.numRouters()));
        for (int r = 0; r < topo.numRouters(); ++r)
            coords_[static_cast<std::size_t>(r)] =
                topo.placement().coordOf(r);
    }

  protected:
    int cols_;
    int rows_;
    std::vector<Coord> coords_;

    int
    routerAt(int x, int y) const
    {
        return y * cols_ + x;
    }

    const Coord &coordOf(int r) const
    {
        return coords_[static_cast<std::size_t>(r)];
    }
};

/** Dimension-ordered XY for meshes: X step-by-step, then Y. */
class MeshXyRouting : public GridBase
{
  public:
    using GridBase::GridBase;

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.dstRouter)
            return {-1, 0};
        Coord cur = coordOf(router);
        Coord dst = coordOf(packet.dstRouter);
        if (cur.x != dst.x) {
            int nx = cur.x + (dst.x > cur.x ? 1 : -1);
            return {routerAt(nx, cur.y), 0};
        }
        int ny = cur.y + (dst.y > cur.y ? 1 : -1);
        return {routerAt(cur.x, ny), 1};
    }

    int numVcs() const override { return 2; }
    int maxHops() const override { return cols_ + rows_; }
};

/**
 * Dimension-ordered routing for the torus with dateline VCs: within
 * each dimension packets start on VC0 and move to VC1 after crossing
 * the wraparound link, breaking the ring cycle; dimension order
 * breaks X/Y cycles.
 */
class TorusRouting : public GridBase
{
  public:
    using GridBase::GridBase;

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.dstRouter)
            return {-1, 0};
        Coord cur = coordOf(router);
        Coord dst = coordOf(packet.dstRouter);
        if (cur.x != dst.x)
            return stepDim(cur.x, dst.x, cols_, packet, true, cur);
        return stepDim(cur.y, dst.y, rows_, packet, false, cur);
    }

    void
    onInject(Packet &packet, const NetworkState &) override
    {
        // Reuse `phase` as the dateline flag for the current
        // dimension; reset when the dimension changes.
        packet.phase = 0;
    }

    int numVcs() const override { return 2; }
    int maxHops() const override { return cols_ / 2 + rows_ / 2 + 2; }

  private:
    RouteDecision
    stepDim(int cur, int dst, int size, Packet &packet, bool isX,
            Coord curCoord)
    {
        // Shorter direction around the ring; ties go up.
        int fwd = (dst - cur + size) % size;
        int bwd = (cur - dst + size) % size;
        int step = fwd <= bwd ? 1 : -1;
        int nxt = (cur + step + size) % size;
        bool wraps = (step == 1 && nxt == 0) ||
                     (step == -1 && cur == 0);
        int vc = packet.phase;
        if (wraps)
            packet.phase = 1; // crossed the dateline in this dim
        // Reaching the dimension's target resets the dateline flag
        // for the next dimension.
        if (nxt == dst)
            packet.phase = 0;
        if (isX)
            return {routerAt(nxt, curCoord.y), vc};
        return {routerAt(curCoord.x, nxt), vc};
    }
};

/** FBF: single hop to the destination column, then to its row. */
class FbfXyRouting : public GridBase
{
  public:
    using GridBase::GridBase;

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.dstRouter)
            return {-1, 0};
        Coord cur = coordOf(router);
        Coord dst = coordOf(packet.dstRouter);
        if (cur.x != dst.x)
            return {routerAt(dst.x, cur.y), 0};
        return {routerAt(cur.x, dst.y), 1};
    }

    int numVcs() const override { return 2; }
    int maxHops() const override { return 3; }
};

/**
 * PFBF (Figure 9): X phase first -- align the intra-partition column
 * offset with the destination's, then follow partition-crossing
 * links; then the Y phase does the same vertically. The X phase's
 * channel dependencies are acyclic (intra links precede partition
 * links), so one VC per phase suffices.
 */
class PfbfRouting : public GridBase
{
  public:
    explicit PfbfRouting(const NocTopology &topo)
        : GridBase(topo), partsX_(topo.routingHint().partsX),
          partsY_(topo.routingHint().partsY),
          subCols_(cols_ / partsX_), subRows_(rows_ / partsY_)
    {
    }

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.dstRouter)
            return {-1, 0};
        Coord cur = coordOf(router);
        Coord dst = coordOf(packet.dstRouter);
        if (cur.x != dst.x)
            return {routerAt(stepAxis(cur.x, dst.x, subCols_, partsX_),
                             cur.y),
                    0};
        return {routerAt(cur.x,
                         stepAxis(cur.y, dst.y, subRows_, partsY_)),
                1};
    }

    int numVcs() const override { return 2; }

    int
    maxHops() const override
    {
        return 2 * (1 + std::max(partsX_, partsY_)) + 1;
    }

  private:
    int partsX_;
    int partsY_;
    int subCols_;
    int subRows_;

    /** Next coordinate along one axis. */
    int
    stepAxis(int cur, int dst, int sub, int parts) const
    {
        int curPart = cur / sub;
        int dstPart = dst / sub;
        int dstOff = dst % sub;
        if (curPart == dstPart)
            return dst; // single intra-partition FBF hop
        if (cur % sub != dstOff)
            return curPart * sub + dstOff; // align offset first
        // Follow the partition link toward the destination partition
        // (path for 2 partitions, ring for more).
        int nextPart;
        if (parts <= 2) {
            nextPart = dstPart;
        } else {
            nextPart = (curPart + 1) % parts;
        }
        return nextPart * sub + dstOff;
    }
};

/**
 * Minimal-adaptive routing: at each router pick the least-loaded
 * minimal next hop; VCs stay hop-indexed, so every path climbs the
 * VC order and the scheme remains deadlock-free with the same VC
 * count as static minimal routing.
 *
 * Note a structural subtlety this implementation exposed: MMS
 * graphs approach the Moore bound, so almost every distance-2
 * router pair has a *unique* minimal path -- on Slim NoC itself
 * minimal adaptivity degenerates to static routing, which is
 * exactly why the paper's Section 6 explores *non-minimal* (UGAL)
 * adaptivity for SN instead. On topologies with minimal-path
 * diversity (FBF's two dimension orders, tori, PFBF) the scheme
 * spreads load as expected.
 */
class MinAdaptiveRouting : public TableRouting
{
  public:
    MinAdaptiveRouting(const NocTopology &topo, int numVcs)
        : TableRouting(topo, std::max(numVcs, topo.diameter()),
                       topo.diameter() + 1)
    {
    }

    void attachState(const NetworkState &state) override
    {
        state_ = &state;
    }

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.dstRouter)
            return {-1, 0};
        // Reused scratch: route() runs once per head flit per hop,
        // so a fresh vector here would be a per-cycle allocation.
        // thread_local (not a member) because one routing instance is
        // shared by every router, and the sharded loop calls route()
        // from several shard threads at once.
        static thread_local std::vector<int> candidates;
        paths_->minimalNextHops(router, packet.dstRouter, candidates);
        SNOC_ASSERT(!candidates.empty(), "no minimal next hop");
        int best = candidates.front();
        if (state_) {
            int bestOcc = state_->linkOccupancy(router, best);
            for (std::size_t i = 1; i < candidates.size(); ++i) {
                int occ = state_->linkOccupancy(router,
                                                candidates[i]);
                if (occ < bestOcc) {
                    best = candidates[i];
                    bestOcc = occ;
                }
            }
        }
        return {best, hopVc(packet)};
    }

  private:
    const NetworkState *state_ = nullptr;
};

/**
 * UGAL (Section 6): at injection compare the deterministic minimal
 * path against one randomly-chosen Valiant detour; pick the cheaper
 * under queue-length x hop-count cost. UGAL-L sees only the source
 * router's output queues; UGAL-G sums occupancy along the candidate
 * paths. In-flight, packets follow minimal routes to the intermediate
 * then to the destination, with strictly increasing hop VCs.
 */
class UgalRouting : public TableRouting
{
  public:
    UgalRouting(const NocTopology &topo, bool global, std::uint64_t seed)
        : TableRouting(topo, 2 * topo.diameter(),
                       2 * topo.diameter() + 2),
          global_(global), rng_(seed)
    {
    }

    void
    onInject(Packet &packet, const NetworkState &state) override
    {
        packet.valiantRouter = -1;
        packet.phase = 0;
        int src = packet.srcRouter;
        int dst = packet.dstRouter;
        if (src == dst || paths_->numVertices() < 3)
            return;
        // One candidate intermediate per packet; a degenerate draw
        // (src or dst itself) falls back to minimal routing for this
        // packet — there is no re-draw, keeping the per-packet rng
        // cost at exactly one draw.
        int inter = static_cast<int>(
            rng_.nextUint(static_cast<std::uint64_t>(
                paths_->numVertices())));
        if (inter == src || inter == dst)
            return; // degenerate detour: stay minimal this time

        int hLeg1 = paths_->distance(src, inter);
        int hLeg2 = paths_->distance(inter, dst);
        if (hLeg1 < 0 || hLeg2 < 0)
            return; // detour crosses a disconnected region (faults)
        double costMin;
        double costVal;
        if (global_) {
            // The paper's queue x hops product needs no explicit
            // hop-count factor here: summing per-link occupancy over
            // every hop of the candidate path already integrates
            // queueing over its length, so the global cost is the
            // path-occupancy sum alone.
            costMin = static_cast<double>(state.pathOccupancy(src, dst));
            costVal = static_cast<double>(
                state.pathOccupancy(src, inter) +
                state.pathOccupancy(inter, dst));
        } else {
            // UGAL-L sees only the source router's queues, so the
            // hop counts supply the path-length factor explicitly:
            // cost = local queue x total hops.
            int hMin = paths_->distance(src, dst);
            int hVal = hLeg1 + hLeg2;
            int qMin = state.linkOccupancy(
                src, paths_->nextHop(src, dst));
            int qVal = state.linkOccupancy(
                src, paths_->nextHop(src, inter));
            costMin = static_cast<double>(qMin) * hMin;
            costVal = static_cast<double>(qVal) * hVal;
        }
        if (costVal < costMin)
            packet.valiantRouter = inter;
    }

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.valiantRouter && packet.phase == 0)
            packet.phase = 1;
        if (router == packet.dstRouter)
            return {-1, 0};
        int target = (packet.phase == 0 && packet.valiantRouter >= 0)
                         ? packet.valiantRouter
                         : packet.dstRouter;
        return {paths_->nextHop(router, target), hopVc(packet)};
    }

  private:
    bool global_;
    Rng rng_;
};

/**
 * FBF's XY-adaptive scheme (Section 6): per packet pick X-first or
 * Y-first by comparing the source router's queue toward each first
 * hop. X-first packets use VC0 then VC1; Y-first use VC1 then VC0
 * is NOT safe, so Y-first also climbs VC0->VC1 but over Y-then-X
 * channels; the two channel subgraphs are disjoint by dimension and
 * each is used in one direction only, keeping dependencies acyclic.
 */
class FbfXyAdaptiveRouting : public GridBase
{
  public:
    using GridBase::GridBase;

    void
    onInject(Packet &packet, const NetworkState &state) override
    {
        packet.phase = 0; // 0 = X-first, 1 = Y-first
        Coord cur = coordOf(packet.srcRouter);
        Coord dst = coordOf(packet.dstRouter);
        if (cur.x == dst.x || cur.y == dst.y)
            return;
        int qx = state.linkOccupancy(packet.srcRouter,
                                     routerAt(dst.x, cur.y));
        int qy = state.linkOccupancy(packet.srcRouter,
                                     routerAt(cur.x, dst.y));
        packet.phase = qy < qx ? 1 : 0;
    }

    RouteDecision
    route(int router, Packet &packet) override
    {
        if (router == packet.dstRouter)
            return {-1, 0};
        Coord cur = coordOf(router);
        Coord dst = coordOf(packet.dstRouter);
        int vc = std::min(packet.hops, 1);
        if (packet.phase == 0) {
            if (cur.x != dst.x)
                return {routerAt(dst.x, cur.y), vc};
            return {routerAt(cur.x, dst.y), vc};
        }
        if (cur.y != dst.y)
            return {routerAt(cur.x, dst.y), vc};
        return {routerAt(dst.x, cur.y), vc};
    }

    int numVcs() const override { return 2; }
    int maxHops() const override { return 3; }
};

/** The name <-> mode registry behind the lookup functions below. */
const NamedRegistry<RoutingMode> &
routingModeRegistry()
{
    static const NamedRegistry<RoutingMode> reg(
        "routing mode", {
                            {"minimal", RoutingMode::Minimal},
                            {"min-adaptive", RoutingMode::MinAdaptive},
                            {"ugal-l", RoutingMode::UgalL},
                            {"ugal-g", RoutingMode::UgalG},
                            {"xy-adaptive", RoutingMode::XyAdaptive},
                        });
    return reg;
}

} // namespace

std::string
to_string(RoutingMode mode)
{
    const NamedRegistry<RoutingMode> &reg = routingModeRegistry();
    for (const std::string &name : reg.names())
        if (*reg.find(name) == mode)
            return name;
    SNOC_PANIC("unregistered routing mode ", static_cast<int>(mode));
}

RoutingMode
routingModeFromName(const std::string &name)
{
    return routingModeRegistry().get(name);
}

const std::vector<std::string> &
routingModeNames()
{
    return routingModeRegistry().names();
}

std::unique_ptr<RoutingAlgorithm>
makeRouting(const NocTopology &topo, RoutingMode mode, std::uint64_t seed,
            bool faultAware)
{
    using Kind = RoutingHint::Kind;
    Kind kind = topo.routingHint().kind;

    if (mode == RoutingMode::UgalL || mode == RoutingMode::UgalG) {
        return std::make_unique<UgalRouting>(
            topo, mode == RoutingMode::UgalG, seed);
    }
    if (mode == RoutingMode::MinAdaptive) {
        return std::make_unique<MinAdaptiveRouting>(
            topo, std::max(2, topo.diameter()));
    }
    if (mode == RoutingMode::XyAdaptive) {
        SNOC_ASSERT(kind == Kind::Fbf,
                    "XY-adaptive routing is an FBF scheme");
        if (faultAware)
            fatal("XY-adaptive routing cannot reroute around faults; "
                  "use minimal or UGAL with a fault plan");
        return std::make_unique<FbfXyAdaptiveRouting>(topo);
    }

    // Algebraic grid schemes compute next hops from coordinates and
    // cannot express holes; fault-aware runs use BFS-table minimal
    // routing on the same graph instead (rebuilt per fault event).
    if (faultAware &&
        (kind == Kind::Mesh || kind == Kind::Torus ||
         kind == Kind::Fbf || kind == Kind::Pfbf)) {
        return std::make_unique<TableMinimalRouting>(
            topo, std::max(2, topo.diameter()));
    }

    switch (kind) {
      case Kind::Mesh:
        return std::make_unique<MeshXyRouting>(topo);
      case Kind::Torus:
        return std::make_unique<TorusRouting>(topo);
      case Kind::Fbf:
        return std::make_unique<FbfXyRouting>(topo);
      case Kind::Pfbf:
        return std::make_unique<PfbfRouting>(topo);
      case Kind::SlimNoc:
        return std::make_unique<TableMinimalRouting>(topo, 2);
      case Kind::Dragonfly:
      case Kind::Clos:
      case Kind::Generic:
      default:
        return std::make_unique<TableMinimalRouting>(
            topo, std::max(2, topo.diameter()));
    }
}

} // namespace snoc
