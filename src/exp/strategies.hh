/**
 * @file
 * Load-sweep and saturation-search strategies, shared by the
 * experiment engine, the benches and the tests. The strategies are
 * expressed against a PointEvaluator — "give me the SimResult at this
 * load" — so they are agnostic to how the network is built
 * (TopologyCache-backed Scenarios in the engine, a fresh Network per
 * point in the tests).
 */

#ifndef SNOC_EXP_STRATEGIES_HH
#define SNOC_EXP_STRATEGIES_HH

#include <functional>
#include <vector>

#include "sim/simulation.hh"

namespace snoc {

/**
 * Evaluate one point of the swept axis; must be deterministic in
 * the x value. For open-loop scenarios x is the offered load in
 * flits/node/cycle; for closed-loop scenarios the engine maps x
 * through applySweepValue (exp/scenario.hh) onto the spec's sweep
 * axis — issue probability by default. Issue probability is the
 * supported *saturation* axis: stalling grows monotonically with it,
 * so the stable/unstable boundary brackets exactly like an open-loop
 * load. Window depth is a sweep-only axis — deeper windows stall
 * *less*, which would invert the bisection bracket.
 */
using PointEvaluator = std::function<SimResult(double load)>;

/**
 * Run `loads` in order through `eval`.
 *
 * @param stopAtSaturation cut the sweep once a point is unstable or
 *        its latency exceeds saturationFactor x the first delivered
 *        point's latency (the paper's sweep methodology).
 */
std::vector<LoadPoint> runLoadSweep(const PointEvaluator &eval,
                                    const std::vector<double> &loads,
                                    bool stopAtSaturation = true,
                                    double saturationFactor = 6.0);

/** Bisection saturation-search parameters. */
struct SaturationSpec
{
    double loLoad = 0.05;  //!< assumed-stable starting load
    double hiLoad = 1.0;   //!< upper bound (1 flit/node/cycle)
    double tolerance = 0.02; //!< stop when hi - lo <= tolerance
    int maxProbes = 12;    //!< hard cap on evaluations

    bool operator==(const SaturationSpec &) const = default;
};

/** Outcome of a saturation search. */
struct SaturationResult
{
    double saturationLoad = 0.0; //!< highest load observed stable
    double bestThroughput = 0.0; //!< max delivered flits/node/cycle
    std::vector<LoadPoint> probes; //!< every evaluated point, in order
};

/**
 * Find the saturation point by bisecting the stable/unstable
 * boundary: probe hiLoad (stable => done), then loLoad, then narrow
 * the bracket until it is tighter than `tolerance`. Replaces the
 * legacy x1.7 geometric ramp, which overshot the boundary by up to
 * 70% of the load axis.
 */
SaturationResult findSaturation(const PointEvaluator &eval,
                                const SaturationSpec &spec = {});

} // namespace snoc

#endif // SNOC_EXP_STRATEGIES_HH
