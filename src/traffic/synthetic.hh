/**
 * @file
 * Bernoulli synthetic traffic source: every node independently
 * generates a packet with probability load / packetSize per cycle,
 * so the offered load is `load` flits/node/cycle (Section 5.1 fixes
 * the synthetic packet size to 6 flits).
 *
 * Stream contract: each call draws exactly one Rng::nextBool (one
 * next()) per node, in ascending node order, at every load including
 * 0; a node that fires then draws its destination from the same
 * stream. Every golden depends on this order, so a change to it (a
 * geometric-gap source, say) must ship as a new named source.
 */

#ifndef SNOC_TRAFFIC_SYNTHETIC_HH
#define SNOC_TRAFFIC_SYNTHETIC_HH

#include <cstdint>

#include "sim/simulation.hh"
#include "traffic/patterns.hh"

namespace snoc {

/** Synthetic source parameters. */
struct SyntheticConfig
{
    double load = 0.1;      //!< offered flits/node/cycle
    int packetSizeFlits = 6;
    std::uint64_t seed = 42;
};

/**
 * Build a TrafficSource driving `pattern` at the configured load.
 * The pattern object is shared (wrap it in a shared_ptr).
 */
TrafficSource makeSyntheticSource(
    std::shared_ptr<TrafficPattern> pattern, SyntheticConfig cfg);

} // namespace snoc

#endif // SNOC_TRAFFIC_SYNTHETIC_HH
