#include "sim/channel.hh"

#include "common/log.hh"

namespace snoc {

FlitChannel::FlitChannel(int latency) : latency_(latency)
{
    SNOC_ASSERT(latency_ >= 1, "channel latency must be >= 1");
}

Cycle
FlitChannel::pushFlit(Flit flit, Cycle now, int extraDelay)
{
    Cycle arrival = now + static_cast<Cycle>(latency_ + extraDelay);
    SNOC_ASSERT(flits_.empty() || flits_.back().at <= arrival,
                "non-monotonic flit arrival");
    flits_.push_back(TimedFlit{arrival, flit});
    return arrival;
}

Cycle
FlitChannel::pushCredit(int vc, Cycle now)
{
    Cycle arrival = now + static_cast<Cycle>(latency_);
    SNOC_ASSERT(credits_.empty() || credits_.back().at <= arrival,
                "non-monotonic credit arrival");
    credits_.push_back(TimedCredit{arrival, vc});
    return arrival;
}

void
FlitChannel::purgeFlits(const std::function<bool(const Flit &)> &drop,
                        std::vector<Flit> &removed)
{
    flits_.removeIf([&](const TimedFlit &tf) {
        if (!drop(tf.flit))
            return false;
        removed.push_back(tf.flit);
        return true;
    });
}

void
FlitChannel::forEachFlit(
    const std::function<void(const Flit &)> &fn) const
{
    for (std::size_t i = 0; i < flits_.size(); ++i)
        fn(flits_[i].flit);
}

std::size_t
FlitChannel::flitsInFlightOnVc(int vc) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < flits_.size(); ++i)
        if (flits_[i].flit.vc == vc)
            ++n;
    return n;
}

std::size_t
FlitChannel::creditsInFlightOnVc(int vc) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < credits_.size(); ++i)
        if (credits_[i].vc == vc)
            ++n;
    return n;
}

} // namespace snoc
