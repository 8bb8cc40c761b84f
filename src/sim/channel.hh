/**
 * @file
 * Pipelined link channels.
 *
 * A FlitChannel carries flits downstream with a fixed latency and
 * credits upstream with the same latency (the credit wire runs along
 * the data wire). Latency in router cycles is ceil(dist / H) where
 * dist is the Manhattan wire length and H the SMART hops-per-cycle
 * factor (Section 3.2.2); H = 1 without SMART, H ~ 9 with SMART.
 *
 * With ElastiStore elastic links (Section 4.1) the pipeline latches
 * themselves store flits; the simulator models this as additional
 * effective buffer depth at the downstream input (see RouterConfig).
 *
 * Hot-path contract: in-flight storage is a pre-reserved ring buffer
 * (credit flow control bounds occupancy by the downstream buffer
 * depth, which the attaching Router reserves via reserveFlits /
 * reserveCredits), and arrivals drain into caller-provided scratch
 * vectors — steady-state channel traffic performs no heap
 * allocations.
 */

#ifndef SNOC_SIM_CHANNEL_HH
#define SNOC_SIM_CHANNEL_HH

#include <functional>
#include <vector>

#include "common/ring_buffer.hh"
#include "sim/types.hh"

namespace snoc {

/** One directed link: flits downstream, credits upstream. */
class FlitChannel
{
  public:
    /**
     * @param latency cycles a flit (or returning credit) spends on
     *        the wire; >= 1
     */
    explicit FlitChannel(int latency);

    int latency() const { return latency_; }

    /** Send a flit; it arrives at now + latency (+ extraDelay), the
     *  cycle returned. */
    Cycle pushFlit(Flit flit, Cycle now, int extraDelay = 0);

    /** Append all flits that have arrived by `now` to `out`
     *  (ordered); `out` is the caller's reusable scratch vector.
     *  Inline: the sharded loop calls it on every port it visits. */
    void
    popArrivedFlits(Cycle now, std::vector<Flit> &out)
    {
        while (!flits_.empty() && flits_.front().at <= now) {
            out.push_back(flits_.front().flit);
            flits_.pop_front();
        }
    }

    /** Return a credit for `vc`; it arrives upstream at now +
     *  latency, the cycle returned. */
    Cycle pushCredit(int vc, Cycle now);

    /** Append all credits that have arrived by `now` to `out`. */
    void
    popArrivedCredits(Cycle now, std::vector<int> &out)
    {
        while (!credits_.empty() && credits_.front().at <= now) {
            out.push_back(credits_.front().vc);
            credits_.pop_front();
        }
    }

    /** Number of flits currently in flight. */
    std::size_t flitsInFlight() const { return flits_.size(); }

    /** Number of credits currently in flight. */
    std::size_t creditsInFlight() const { return credits_.size(); }

    /** Arrival cycle of the i-th oldest in-flight flit. */
    Cycle flitArrival(std::size_t i) const { return flits_[i].at; }

    /** Arrival cycle of the i-th oldest in-flight credit. */
    Cycle creditArrival(std::size_t i) const { return credits_[i].at; }

    /** Pre-size the flit ring (attaching router knows the bound). */
    void reserveFlits(std::size_t n) { flits_.reserve(n); }

    /** Pre-size the credit ring. */
    void reserveCredits(std::size_t n) { credits_.reserve(n); }

    // --- fault injection / audit (not hot path) ---

    /**
     * Remove every in-flight flit matching `drop`, appending removals
     * to `removed`; survivors keep their order and arrival times.
     */
    void purgeFlits(const std::function<bool(const Flit &)> &drop,
                    std::vector<Flit> &removed);

    /** Visit every in-flight flit, oldest first (fault discovery). */
    void forEachFlit(const std::function<void(const Flit &)> &fn) const;

    /** In-flight flits carrying the given VC tag (invariant audit). */
    std::size_t flitsInFlightOnVc(int vc) const;

    /** In-flight returning credits for the given VC. */
    std::size_t creditsInFlightOnVc(int vc) const;

  private:
    struct TimedFlit
    {
        Cycle at = 0;
        Flit flit;
    };

    struct TimedCredit
    {
        Cycle at = 0;
        int vc = 0;
    };

    int latency_;
    RingBuffer<TimedFlit> flits_;
    RingBuffer<TimedCredit> credits_;
};

} // namespace snoc

#endif // SNOC_SIM_CHANNEL_HH
