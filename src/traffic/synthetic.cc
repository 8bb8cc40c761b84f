#include "traffic/synthetic.hh"

#include "common/log.hh"

namespace snoc {

TrafficSource
makeSyntheticSource(std::shared_ptr<TrafficPattern> pattern,
                    SyntheticConfig cfg)
{
    SNOC_ASSERT(pattern != nullptr, "null traffic pattern");
    SNOC_ASSERT(cfg.load >= 0.0 && cfg.packetSizeFlits >= 1,
                "bad synthetic config");
    auto rng = std::make_shared<Rng>(cfg.seed);
    double pGen = cfg.load / static_cast<double>(cfg.packetSizeFlits);
    return [pattern, rng, cfg, pGen](Network &net, Cycle) -> bool {
        int n = net.topology().numNodes();
        for (int src = 0; src < n; ++src) {
            if (rng->nextBool(pGen)) {
                int dst = pattern->destination(src, *rng);
                net.offerPacket(src, dst, cfg.packetSizeFlits);
            }
        }
        return true;
    };
}

} // namespace snoc
