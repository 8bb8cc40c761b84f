#include "exp/serialize.hh"

#include "common/log.hh"
#include "power/tech_params.hh"
#include "sim/router_config.hh"
#include "topo/table4.hh"
#include "trace/workloads.hh"

namespace snoc {

namespace {

/**
 * Strict object reader: members are taken by key; finish() rejects
 * whatever was not taken, with the full path of the stray member.
 */
class ObjectReader
{
  public:
    ObjectReader(const JsonValue &v, std::string path)
        : value_(v), path_(std::move(path)),
          consumed_(v.members(path_).size(), false)
    {
    }

    /** The member under `key` (marking it consumed), or nullptr. */
    const JsonValue *
    take(const char *key)
    {
        const auto &members = value_.members(path_);
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (members[i].first == key) {
                consumed_[i] = true;
                return &members[i].second;
            }
        }
        return nullptr;
    }

    /** Path of the member under `key` ("<path>.<key>"). */
    std::string
    sub(const char *key) const
    {
        return path_ + "." + key;
    }

    /** Reject members that were never taken (typo protection). */
    void
    finish() const
    {
        const auto &members = value_.members(path_);
        for (std::size_t i = 0; i < members.size(); ++i)
            if (!consumed_[i])
                fatal(path_, ": unknown member '", members[i].first,
                      "'");
    }

    const std::string &path() const { return path_; }

  private:
    const JsonValue &value_;
    std::string path_;
    std::vector<bool> consumed_;
};

std::string
elem(const std::string &path, std::size_t i)
{
    return path + "[" + std::to_string(i) + "]";
}

/** Re-raise a registry FatalError with the JSON path prepended. */
template <typename Fn>
auto
atPath(const std::string &path, Fn &&fn)
{
    try {
        return fn();
    } catch (const FatalError &e) {
        fatal(path, ": ", e.what());
    }
}

// --- fault-event kind names -------------------------------------------------

constexpr std::pair<FaultEvent::Kind, const char *> kEventKinds[] = {
    {FaultEvent::Kind::LinkDown, "link-down"},
    {FaultEvent::Kind::LinkUp, "link-up"},
    {FaultEvent::Kind::RouterDown, "router-down"},
    {FaultEvent::Kind::RouterUp, "router-up"},
};

const char *
eventKindName(FaultEvent::Kind kind)
{
    for (const auto &[k, name] : kEventKinds)
        if (k == kind)
            return name;
    SNOC_PANIC("unregistered fault-event kind");
}

FaultEvent::Kind
eventKindFromName(const std::string &name, const std::string &path)
{
    for (const auto &[k, n] : kEventKinds)
        if (name == n)
            return k;
    fatal(path, ": unknown fault-event kind '", name,
          "' (expected one of: link-down, link-up, router-down, "
          "router-up)");
}

} // namespace

// --- writers ----------------------------------------------------------------

namespace {

/** Non-default members of a closed-loop spec ("closedLoop"). */
JsonValue
closedLoopToJson(const ClosedLoopSpec &cl)
{
    const ClosedLoopSpec d;
    JsonValue v = JsonValue::object();
    if (cl.window != d.window)
        v.set("window", JsonValue::number(cl.window));
    if (cl.issueProb != d.issueProb)
        v.set("issueProb", JsonValue::number(cl.issueProb));
    if (cl.requestSizeFlits != d.requestSizeFlits)
        v.set("requestSizeFlits",
              JsonValue::number(cl.requestSizeFlits));
    if (cl.replySizeFlits != d.replySizeFlits)
        v.set("replySizeFlits", JsonValue::number(cl.replySizeFlits));
    if (cl.forwardSizeFlits != d.forwardSizeFlits)
        v.set("forwardSizeFlits",
              JsonValue::number(cl.forwardSizeFlits));
    if (cl.forwardFraction != d.forwardFraction)
        v.set("forwardFraction",
              JsonValue::number(cl.forwardFraction));
    if (cl.memoryDelay != d.memoryDelay)
        v.set("memoryDelay", JsonValue::number(cl.memoryDelay));
    if (cl.sweepAxis != d.sweepAxis)
        v.set("sweep", JsonValue::string(to_string(cl.sweepAxis)));
    if (cl.stopAfterRequests != d.stopAfterRequests)
        v.set("stopAfterRequests",
              JsonValue::number(cl.stopAfterRequests));
    return v;
}

/** Non-default members of a collective spec ("collective"). */
JsonValue
collectiveToJson(const CollectiveSpec &coll)
{
    const CollectiveSpec d;
    JsonValue v = JsonValue::object();
    if (coll.kind != d.kind)
        v.set("kind", JsonValue::string(to_string(coll.kind)));
    if (coll.root != d.root)
        v.set("root", JsonValue::number(coll.root));
    if (coll.fanout != d.fanout)
        v.set("fanout", JsonValue::number(coll.fanout));
    if (coll.rounds != d.rounds)
        v.set("rounds", JsonValue::number(coll.rounds));
    if (coll.phases != d.phases)
        v.set("phases", JsonValue::number(coll.phases));
    if (coll.gapCycles != d.gapCycles)
        v.set("gapCycles", JsonValue::number(coll.gapCycles));
    if (coll.payloadSizeFlits != d.payloadSizeFlits)
        v.set("payloadSizeFlits",
              JsonValue::number(coll.payloadSizeFlits));
    if (coll.controlSizeFlits != d.controlSizeFlits)
        v.set("controlSizeFlits",
              JsonValue::number(coll.controlSizeFlits));
    return v;
}

} // namespace

JsonValue
toJson(const TrafficSpec &traffic)
{
    JsonValue v = JsonValue::object();
    switch (traffic.kind) {
      case TrafficSpec::Kind::Workload:
        v.set("workload", JsonValue::string(traffic.workload));
        if (traffic.workloadCycles != TrafficSpec().workloadCycles)
            v.set("workloadCycles",
                  JsonValue::number(traffic.workloadCycles));
        break;
      case TrafficSpec::Kind::ClosedLoop:
        // Presence of the "closedLoop" member selects the kind; the
        // pattern still names the request-destination draw.
        v.set("pattern",
              JsonValue::string(to_string(traffic.pattern)));
        v.set("closedLoop", closedLoopToJson(traffic.closedLoop));
        break;
      case TrafficSpec::Kind::Collective:
        v.set("collective", collectiveToJson(traffic.collective));
        break;
      case TrafficSpec::Kind::Synthetic:
        v.set("pattern",
              JsonValue::string(to_string(traffic.pattern)));
        if (traffic.packetSizeFlits != TrafficSpec().packetSizeFlits)
            v.set("packetSizeFlits",
                  JsonValue::number(traffic.packetSizeFlits));
        break;
    }
    return v;
}

JsonValue
toJson(const FaultPlan &faults)
{
    const FaultPlan defaults;
    JsonValue v = JsonValue::object();
    if (!faults.events.empty()) {
        JsonValue events = JsonValue::array();
        for (const FaultEvent &e : faults.events) {
            JsonValue ev = JsonValue::object();
            ev.set("at", JsonValue::number(e.at));
            ev.set("kind", JsonValue::string(eventKindName(e.kind)));
            ev.set("a", JsonValue::number(e.a));
            if (e.b != -1)
                ev.set("b", JsonValue::number(e.b));
            events.push(std::move(ev));
        }
        v.set("events", std::move(events));
    }
    if (faults.randomLinkFraction != defaults.randomLinkFraction)
        v.set("randomLinkFraction",
              JsonValue::number(faults.randomLinkFraction));
    if (faults.randomFailAt != defaults.randomFailAt)
        v.set("randomFailAt", JsonValue::number(faults.randomFailAt));
    if (faults.faultSeed != defaults.faultSeed)
        v.set("faultSeed", JsonValue::number(faults.faultSeed));
    if (faults.armed != defaults.armed)
        v.set("armed", JsonValue::boolean(faults.armed));
    return v;
}

JsonValue
toJson(const EnergySpec &energy)
{
    // Presence of the member enables evaluation, so only the
    // non-default knobs appear; a defaults-only enabled spec
    // serializes as the empty object.
    const EnergySpec defaults;
    JsonValue v = JsonValue::object();
    if (energy.tech != defaults.tech)
        v.set("tech", JsonValue::string(energy.tech));
    if (energy.flitBits != defaults.flitBits)
        v.set("flitBits", JsonValue::number(energy.flitBits));
    return v;
}

JsonValue
toJson(const SimConfig &sim)
{
    const SimConfig defaults;
    JsonValue v = JsonValue::object();
    if (sim.warmupCycles != defaults.warmupCycles)
        v.set("warmupCycles", JsonValue::number(sim.warmupCycles));
    if (sim.measureCycles != defaults.measureCycles)
        v.set("measureCycles", JsonValue::number(sim.measureCycles));
    if (sim.drainCycleLimit != defaults.drainCycleLimit)
        v.set("drainCycleLimit",
              JsonValue::number(sim.drainCycleLimit));
    if (sim.drain != defaults.drain)
        v.set("drain", JsonValue::boolean(sim.drain));
    return v;
}

JsonValue
toJson(const LinkConfig &link)
{
    JsonValue v = JsonValue::object();
    if (link.hopsPerCycle != LinkConfig().hopsPerCycle)
        v.set("hopsPerCycle", JsonValue::number(link.hopsPerCycle));
    return v;
}

JsonValue
toJson(const Scenario &scenario)
{
    const Scenario defaults;
    JsonValue v = JsonValue::object();
    if (!scenario.label.empty())
        v.set("label", JsonValue::string(scenario.label));
    v.set("topology", JsonValue::string(scenario.topology));
    if (scenario.routerConfig != defaults.routerConfig)
        v.set("routerConfig",
              JsonValue::string(scenario.routerConfig));
    if (!(scenario.link == defaults.link))
        v.set("link", toJson(scenario.link));
    if (scenario.routing != defaults.routing)
        v.set("routing",
              JsonValue::string(to_string(scenario.routing)));
    if (!(scenario.traffic == defaults.traffic))
        v.set("traffic", toJson(scenario.traffic));
    if (scenario.load != defaults.load)
        v.set("load", JsonValue::number(scenario.load));
    if (scenario.seed != defaults.seed)
        v.set("seed", JsonValue::number(scenario.seed));
    if (scenario.routingSeed != defaults.routingSeed)
        v.set("routingSeed", JsonValue::number(scenario.routingSeed));
    if (!(scenario.sim == defaults.sim))
        v.set("sim", toJson(scenario.sim));
    if (!(scenario.faults == defaults.faults))
        v.set("faults", toJson(scenario.faults));
    if (scenario.energy.enabled)
        v.set("energy", toJson(scenario.energy));
    return v;
}

JsonValue
toJson(const Job &job)
{
    JsonValue v = JsonValue::object();
    v.set("scenario", toJson(job.scenario));
    if (job.kind == Job::Kind::Sweep) {
        JsonValue sweep = JsonValue::object();
        JsonValue loads = JsonValue::array();
        for (double load : job.loads)
            loads.push(JsonValue::number(load));
        sweep.set("loads", std::move(loads));
        if (!job.stopAtSaturation)
            sweep.set("stopAtSaturation", JsonValue::boolean(false));
        if (job.saturationFactor != Job().saturationFactor)
            sweep.set("saturationFactor",
                      JsonValue::number(job.saturationFactor));
        v.set("sweep", std::move(sweep));
    } else if (job.kind == Job::Kind::Saturation) {
        const SaturationSpec defaults;
        JsonValue sat = JsonValue::object();
        if (job.saturation.loLoad != defaults.loLoad)
            sat.set("loLoad",
                    JsonValue::number(job.saturation.loLoad));
        if (job.saturation.hiLoad != defaults.hiLoad)
            sat.set("hiLoad",
                    JsonValue::number(job.saturation.hiLoad));
        if (job.saturation.tolerance != defaults.tolerance)
            sat.set("tolerance",
                    JsonValue::number(job.saturation.tolerance));
        if (job.saturation.maxProbes != defaults.maxProbes)
            sat.set("maxProbes",
                    JsonValue::number(job.saturation.maxProbes));
        v.set("saturation", std::move(sat));
    }
    return v;
}

JsonValue
toJson(const ExperimentPlan &plan)
{
    JsonValue v = JsonValue::object();
    if (!plan.name.empty())
        v.set("name", JsonValue::string(plan.name));
    JsonValue jobs = JsonValue::array();
    for (const Job &job : plan.jobs)
        jobs.push(toJson(job));
    v.set("jobs", std::move(jobs));
    return v;
}

// --- readers ----------------------------------------------------------------

namespace {

ClosedLoopSpec
closedLoopFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    ClosedLoopSpec cl;
    if (const JsonValue *m = obj.take("window")) {
        cl.window = m->asInt(obj.sub("window"));
        if (cl.window < 1)
            fatal(obj.sub("window"), ": must be at least 1");
    }
    if (const JsonValue *m = obj.take("issueProb")) {
        cl.issueProb = m->asDouble(obj.sub("issueProb"));
        if (cl.issueProb < 0.0 || cl.issueProb > 1.0)
            fatal(obj.sub("issueProb"), ": must be within [0, 1]");
    }
    if (const JsonValue *m = obj.take("requestSizeFlits")) {
        cl.requestSizeFlits = m->asInt(obj.sub("requestSizeFlits"));
        if (cl.requestSizeFlits < 1)
            fatal(obj.sub("requestSizeFlits"),
                  ": must be at least 1 flit");
    }
    if (const JsonValue *m = obj.take("replySizeFlits")) {
        cl.replySizeFlits = m->asInt(obj.sub("replySizeFlits"));
        if (cl.replySizeFlits < 1)
            fatal(obj.sub("replySizeFlits"),
                  ": must be at least 1 flit");
    }
    if (const JsonValue *m = obj.take("forwardSizeFlits")) {
        cl.forwardSizeFlits = m->asInt(obj.sub("forwardSizeFlits"));
        if (cl.forwardSizeFlits < 1)
            fatal(obj.sub("forwardSizeFlits"),
                  ": must be at least 1 flit");
    }
    if (const JsonValue *m = obj.take("forwardFraction")) {
        cl.forwardFraction = m->asDouble(obj.sub("forwardFraction"));
        if (cl.forwardFraction < 0.0 || cl.forwardFraction > 1.0)
            fatal(obj.sub("forwardFraction"),
                  ": must be within [0, 1]");
    }
    if (const JsonValue *m = obj.take("memoryDelay")) {
        cl.memoryDelay = m->asU64(obj.sub("memoryDelay"));
        if (cl.memoryDelay < 1)
            fatal(obj.sub("memoryDelay"), ": must be at least 1");
    }
    if (const JsonValue *m = obj.take("sweep"))
        cl.sweepAxis = atPath(obj.sub("sweep"), [&] {
            return closedLoopAxisFromName(
                m->asString(obj.sub("sweep")));
        });
    if (const JsonValue *m = obj.take("stopAfterRequests"))
        cl.stopAfterRequests = m->asU64(obj.sub("stopAfterRequests"));
    obj.finish();
    return cl;
}

CollectiveSpec
collectiveFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    CollectiveSpec coll;
    if (const JsonValue *m = obj.take("kind"))
        coll.kind = atPath(obj.sub("kind"), [&] {
            return collectiveKindFromName(
                m->asString(obj.sub("kind")));
        });
    if (const JsonValue *m = obj.take("root")) {
        coll.root = m->asInt(obj.sub("root"));
        if (coll.root < 0)
            fatal(obj.sub("root"), ": must be non-negative");
    }
    if (const JsonValue *m = obj.take("fanout")) {
        coll.fanout = m->asInt(obj.sub("fanout"));
        if (coll.fanout < 0)
            fatal(obj.sub("fanout"), ": must be non-negative");
    }
    if (const JsonValue *m = obj.take("rounds")) {
        coll.rounds = m->asInt(obj.sub("rounds"));
        if (coll.rounds < 0)
            fatal(obj.sub("rounds"), ": must be non-negative");
    }
    if (const JsonValue *m = obj.take("phases")) {
        coll.phases = m->asInt(obj.sub("phases"));
        if (coll.phases < 0)
            fatal(obj.sub("phases"), ": must be non-negative");
    }
    if (const JsonValue *m = obj.take("gapCycles"))
        coll.gapCycles = m->asU64(obj.sub("gapCycles"));
    if (const JsonValue *m = obj.take("payloadSizeFlits")) {
        coll.payloadSizeFlits =
            m->asInt(obj.sub("payloadSizeFlits"));
        if (coll.payloadSizeFlits < 1)
            fatal(obj.sub("payloadSizeFlits"),
                  ": must be at least 1 flit");
    }
    if (const JsonValue *m = obj.take("controlSizeFlits")) {
        coll.controlSizeFlits =
            m->asInt(obj.sub("controlSizeFlits"));
        if (coll.controlSizeFlits < 1)
            fatal(obj.sub("controlSizeFlits"),
                  ": must be at least 1 flit");
    }
    obj.finish();
    return coll;
}

} // namespace

TrafficSpec
trafficSpecFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    TrafficSpec traffic;
    const JsonValue *workload = obj.take("workload");
    const JsonValue *pattern = obj.take("pattern");
    const JsonValue *closedLoop = obj.take("closedLoop");
    const JsonValue *collective = obj.take("collective");
    if (workload && pattern)
        fatal(path, ": 'workload' and 'pattern' are exclusive");
    if ((workload && (closedLoop || collective)) ||
        (closedLoop && collective))
        fatal(path, ": 'workload', 'closedLoop' and 'collective' "
                    "are exclusive");
    if (collective && pattern)
        fatal(path, ": 'collective' does not draw destinations from "
                    "a 'pattern'");
    if (closedLoop) {
        traffic.kind = TrafficSpec::Kind::ClosedLoop;
        if (pattern)
            traffic.pattern = atPath(obj.sub("pattern"), [&] {
                return patternFromName(
                    pattern->asString(obj.sub("pattern")));
            });
        traffic.closedLoop =
            closedLoopFromJson(*closedLoop, obj.sub("closedLoop"));
        obj.finish();
        return traffic;
    }
    if (collective) {
        traffic.kind = TrafficSpec::Kind::Collective;
        traffic.collective =
            collectiveFromJson(*collective, obj.sub("collective"));
        obj.finish();
        return traffic;
    }
    if (workload) {
        traffic.kind = TrafficSpec::Kind::Workload;
        traffic.workload = workload->asString(obj.sub("workload"));
        atPath(obj.sub("workload"), [&] {
            workloadByName(traffic.workload);
            return 0;
        });
        if (const JsonValue *m = obj.take("workloadCycles"))
            traffic.workloadCycles =
                m->asU64(obj.sub("workloadCycles"));
    } else {
        if (pattern)
            traffic.pattern = atPath(obj.sub("pattern"), [&] {
                return patternFromName(
                    pattern->asString(obj.sub("pattern")));
            });
        if (const JsonValue *m = obj.take("packetSizeFlits")) {
            traffic.packetSizeFlits =
                m->asInt(obj.sub("packetSizeFlits"));
            if (traffic.packetSizeFlits < 1)
                fatal(obj.sub("packetSizeFlits"),
                      ": must be at least 1 flit");
        }
    }
    obj.finish();
    return traffic;
}

FaultPlan
faultPlanFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    FaultPlan faults;
    if (const JsonValue *events = obj.take("events")) {
        const std::string eventsPath = obj.sub("events");
        std::size_t i = 0;
        for (const JsonValue &ev : events->items(eventsPath)) {
            const std::string evPath = elem(eventsPath, i++);
            ObjectReader evObj(ev, evPath);
            FaultEvent event;
            if (const JsonValue *m = evObj.take("at"))
                event.at = m->asU64(evObj.sub("at"));
            const JsonValue *kind = evObj.take("kind");
            if (!kind)
                fatal(evPath, ": missing 'kind'");
            event.kind = eventKindFromName(
                kind->asString(evObj.sub("kind")), evObj.sub("kind"));
            const JsonValue *a = evObj.take("a");
            if (!a)
                fatal(evPath, ": missing 'a' (router id)");
            event.a = a->asInt(evObj.sub("a"));
            if (const JsonValue *b = evObj.take("b"))
                event.b = b->asInt(evObj.sub("b"));
            bool isLink = event.kind == FaultEvent::Kind::LinkDown ||
                          event.kind == FaultEvent::Kind::LinkUp;
            if (isLink && event.b < 0)
                fatal(evPath,
                      ": link events need both endpoints 'a' and "
                      "'b'");
            evObj.finish();
            faults.events.push_back(event);
        }
    }
    if (const JsonValue *m = obj.take("randomLinkFraction")) {
        faults.randomLinkFraction =
            m->asDouble(obj.sub("randomLinkFraction"));
        if (faults.randomLinkFraction < 0.0 ||
            faults.randomLinkFraction > 1.0)
            fatal(obj.sub("randomLinkFraction"),
                  ": must be within [0, 1]");
    }
    if (const JsonValue *m = obj.take("randomFailAt"))
        faults.randomFailAt = m->asU64(obj.sub("randomFailAt"));
    if (const JsonValue *m = obj.take("faultSeed"))
        faults.faultSeed = m->asU64(obj.sub("faultSeed"));
    if (const JsonValue *m = obj.take("armed"))
        faults.armed = m->asBool(obj.sub("armed"));
    obj.finish();
    return faults;
}

EnergySpec
energySpecFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    EnergySpec energy;
    energy.enabled = true; // presence of the member enables it
    if (const JsonValue *m = obj.take("tech")) {
        energy.tech = m->asString(obj.sub("tech"));
        atPath(obj.sub("tech"), [&] {
            techCornerByName(energy.tech);
            return 0;
        });
    }
    if (const JsonValue *m = obj.take("flitBits")) {
        energy.flitBits = m->asInt(obj.sub("flitBits"));
        if (energy.flitBits < 1)
            fatal(obj.sub("flitBits"), ": must be at least 1 bit");
    }
    obj.finish();
    return energy;
}

SimConfig
simConfigFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    SimConfig sim;
    if (const JsonValue *m = obj.take("warmupCycles"))
        sim.warmupCycles = m->asU64(obj.sub("warmupCycles"));
    if (const JsonValue *m = obj.take("measureCycles"))
        sim.measureCycles = m->asU64(obj.sub("measureCycles"));
    if (const JsonValue *m = obj.take("drainCycleLimit"))
        sim.drainCycleLimit = m->asU64(obj.sub("drainCycleLimit"));
    if (const JsonValue *m = obj.take("drain"))
        sim.drain = m->asBool(obj.sub("drain"));
    obj.finish();
    return sim;
}

LinkConfig
linkConfigFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    LinkConfig link;
    if (const JsonValue *m = obj.take("hopsPerCycle")) {
        link.hopsPerCycle = m->asInt(obj.sub("hopsPerCycle"));
        if (link.hopsPerCycle < 1)
            fatal(obj.sub("hopsPerCycle"), ": must be at least 1");
    }
    obj.finish();
    return link;
}

Scenario
scenarioFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    Scenario s;
    if (const JsonValue *m = obj.take("label"))
        s.label = m->asString(obj.sub("label"));
    const JsonValue *topology = obj.take("topology");
    if (!topology)
        fatal(path, ": missing 'topology'");
    s.topology = topology->asString(obj.sub("topology"));
    if (!isNamedTopologyId(s.topology))
        fatal(obj.sub("topology"), ": unknown topology id '",
              s.topology, "'");
    if (const JsonValue *m = obj.take("routerConfig")) {
        s.routerConfig = m->asString(obj.sub("routerConfig"));
        atPath(obj.sub("routerConfig"), [&] {
            RouterConfig::named(s.routerConfig);
            return 0;
        });
    }
    if (const JsonValue *m = obj.take("link"))
        s.link = linkConfigFromJson(*m, obj.sub("link"));
    if (const JsonValue *m = obj.take("routing"))
        s.routing = atPath(obj.sub("routing"), [&] {
            return routingModeFromName(
                m->asString(obj.sub("routing")));
        });
    if (const JsonValue *m = obj.take("traffic"))
        s.traffic = trafficSpecFromJson(*m, obj.sub("traffic"));
    if (const JsonValue *m = obj.take("load")) {
        s.load = m->asDouble(obj.sub("load"));
        if (s.load < 0.0)
            fatal(obj.sub("load"), ": must be non-negative");
    }
    if (const JsonValue *m = obj.take("seed"))
        s.seed = m->asU64(obj.sub("seed"));
    if (const JsonValue *m = obj.take("routingSeed"))
        s.routingSeed = m->asU64(obj.sub("routingSeed"));
    if (const JsonValue *m = obj.take("sim"))
        s.sim = simConfigFromJson(*m, obj.sub("sim"));
    if (const JsonValue *m = obj.take("faults"))
        s.faults = faultPlanFromJson(*m, obj.sub("faults"));
    if (const JsonValue *m = obj.take("energy"))
        s.energy = energySpecFromJson(*m, obj.sub("energy"));
    obj.finish();
    return s;
}

Job
jobFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    Job job;
    const JsonValue *scenario = obj.take("scenario");
    if (!scenario)
        fatal(path, ": missing 'scenario'");
    job.scenario = scenarioFromJson(*scenario, obj.sub("scenario"));

    const JsonValue *sweep = obj.take("sweep");
    const JsonValue *saturation = obj.take("saturation");
    if (sweep && saturation)
        fatal(path, ": 'sweep' and 'saturation' are exclusive");

    if (sweep) {
        job.kind = Job::Kind::Sweep;
        const std::string sweepPath = obj.sub("sweep");
        ObjectReader sweepObj(*sweep, sweepPath);
        const JsonValue *loads = sweepObj.take("loads");
        if (!loads)
            fatal(sweepPath, ": missing 'loads'");
        const std::string loadsPath = sweepObj.sub("loads");
        std::size_t i = 0;
        for (const JsonValue &load : loads->items(loadsPath))
            job.loads.push_back(
                load.asDouble(elem(loadsPath, i++)));
        if (job.loads.empty())
            fatal(loadsPath, ": needs at least one load");
        if (const JsonValue *m = sweepObj.take("stopAtSaturation"))
            job.stopAtSaturation =
                m->asBool(sweepObj.sub("stopAtSaturation"));
        if (const JsonValue *m = sweepObj.take("saturationFactor"))
            job.saturationFactor =
                m->asDouble(sweepObj.sub("saturationFactor"));
        sweepObj.finish();
    } else if (saturation) {
        job.kind = Job::Kind::Saturation;
        const std::string satPath = obj.sub("saturation");
        ObjectReader satObj(*saturation, satPath);
        if (const JsonValue *m = satObj.take("loLoad"))
            job.saturation.loLoad =
                m->asDouble(satObj.sub("loLoad"));
        if (const JsonValue *m = satObj.take("hiLoad"))
            job.saturation.hiLoad =
                m->asDouble(satObj.sub("hiLoad"));
        if (const JsonValue *m = satObj.take("tolerance"))
            job.saturation.tolerance =
                m->asDouble(satObj.sub("tolerance"));
        if (const JsonValue *m = satObj.take("maxProbes"))
            job.saturation.maxProbes =
                m->asInt(satObj.sub("maxProbes"));
        satObj.finish();
    }
    obj.finish();
    return job;
}

ExperimentPlan
planFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    ExperimentPlan plan;
    if (const JsonValue *m = obj.take("name"))
        plan.name = m->asString(obj.sub("name"));
    const JsonValue *jobs = obj.take("jobs");
    if (!jobs)
        fatal(path, ": missing 'jobs'");
    const std::string jobsPath = obj.sub("jobs");
    std::size_t i = 0;
    for (const JsonValue &job : jobs->items(jobsPath)) {
        const std::string jobPath = elem(jobsPath, i++);
        plan.jobs.push_back(jobFromJson(job, jobPath));
    }
    obj.finish();
    return plan;
}

// --- result rows (store / journal payloads) ---------------------------------

namespace {

constexpr std::pair<Job::Kind, const char *> kJobKinds[] = {
    {Job::Kind::Single, "single"},
    {Job::Kind::Sweep, "sweep"},
    {Job::Kind::Saturation, "saturation"},
};

const char *
jobKindName(Job::Kind kind)
{
    for (const auto &[k, name] : kJobKinds)
        if (k == kind)
            return name;
    SNOC_PANIC("unregistered job kind");
}

Job::Kind
jobKindFromName(const std::string &name, const std::string &path)
{
    for (const auto &[k, n] : kJobKinds)
        if (name == n)
            return k;
    fatal(path, ": unknown job kind '", name,
          "' (expected single, sweep or saturation)");
}

} // namespace

JsonValue
toJson(const SimCounters &counters)
{
    // Zero counters are omitted (missing == 0 on the way back), so
    // fault-free open-loop rows stay compact.
    JsonValue v = JsonValue::object();
    for (const auto &[name, member] : SimCounters::kFields)
        if (counters.*member != 0)
            v.set(name, JsonValue::number(counters.*member));
    return v;
}

SimCounters
simCountersFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    SimCounters counters;
    for (const auto &[name, member] : SimCounters::kFields)
        if (const JsonValue *m = obj.take(name))
            counters.*member = m->asU64(obj.sub(name));
    obj.finish();
    return counters;
}

JsonValue
toJson(const SimResult &result)
{
    const SimResult d;
    JsonValue v = JsonValue::object();
    if (result.avgPacketLatency != d.avgPacketLatency)
        v.set("avgPacketLatency",
              JsonValue::number(result.avgPacketLatency));
    if (result.avgNetworkLatency != d.avgNetworkLatency)
        v.set("avgNetworkLatency",
              JsonValue::number(result.avgNetworkLatency));
    if (result.p99PacketLatencyBound != d.p99PacketLatencyBound)
        v.set("p99PacketLatencyBound",
              JsonValue::number(result.p99PacketLatencyBound));
    if (result.avgHops != d.avgHops)
        v.set("avgHops", JsonValue::number(result.avgHops));
    if (result.throughput != d.throughput)
        v.set("throughput", JsonValue::number(result.throughput));
    if (result.offeredLoad != d.offeredLoad)
        v.set("offeredLoad", JsonValue::number(result.offeredLoad));
    if (result.packetsDelivered != d.packetsDelivered)
        v.set("packetsDelivered",
              JsonValue::number(result.packetsDelivered));
    if (result.stable != d.stable)
        v.set("stable", JsonValue::boolean(result.stable));
    if (!(result.counters == d.counters))
        v.set("counters", toJson(result.counters));
    if (result.cyclesRun != d.cyclesRun)
        v.set("cyclesRun", JsonValue::number(
                               std::uint64_t(result.cyclesRun)));
    return v;
}

SimResult
simResultFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    SimResult result;
    if (const JsonValue *m = obj.take("avgPacketLatency"))
        result.avgPacketLatency =
            m->asDouble(obj.sub("avgPacketLatency"));
    if (const JsonValue *m = obj.take("avgNetworkLatency"))
        result.avgNetworkLatency =
            m->asDouble(obj.sub("avgNetworkLatency"));
    if (const JsonValue *m = obj.take("p99PacketLatencyBound"))
        result.p99PacketLatencyBound =
            m->asDouble(obj.sub("p99PacketLatencyBound"));
    if (const JsonValue *m = obj.take("avgHops"))
        result.avgHops = m->asDouble(obj.sub("avgHops"));
    if (const JsonValue *m = obj.take("throughput"))
        result.throughput = m->asDouble(obj.sub("throughput"));
    if (const JsonValue *m = obj.take("offeredLoad"))
        result.offeredLoad = m->asDouble(obj.sub("offeredLoad"));
    if (const JsonValue *m = obj.take("packetsDelivered"))
        result.packetsDelivered =
            m->asU64(obj.sub("packetsDelivered"));
    if (const JsonValue *m = obj.take("stable"))
        result.stable = m->asBool(obj.sub("stable"));
    if (const JsonValue *m = obj.take("counters"))
        result.counters =
            simCountersFromJson(*m, obj.sub("counters"));
    if (const JsonValue *m = obj.take("cyclesRun"))
        result.cyclesRun =
            static_cast<Cycle>(m->asU64(obj.sub("cyclesRun")));
    obj.finish();
    return result;
}

JsonValue
toJson(const ScenarioResult &point)
{
    JsonValue v = JsonValue::object();
    v.set("scenario", toJson(point.scenario));
    v.set("sim", toJson(point.sim));
    if (!point.ok)
        v.set("ok", JsonValue::boolean(false));
    if (!point.error.empty())
        v.set("error", JsonValue::string(point.error));
    return v;
}

ScenarioResult
scenarioResultFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    ScenarioResult point;
    const JsonValue *scenario = obj.take("scenario");
    if (!scenario)
        fatal(path, ": missing 'scenario'");
    point.scenario = scenarioFromJson(*scenario, obj.sub("scenario"));
    const JsonValue *sim = obj.take("sim");
    if (!sim)
        fatal(path, ": missing 'sim'");
    point.sim = simResultFromJson(*sim, obj.sub("sim"));
    if (const JsonValue *m = obj.take("ok"))
        point.ok = m->asBool(obj.sub("ok"));
    if (const JsonValue *m = obj.take("error"))
        point.error = m->asString(obj.sub("error"));
    obj.finish();
    return point;
}

JsonValue
toJson(const JobResult &result)
{
    const JobResult d;
    JsonValue v = JsonValue::object();
    v.set("kind", JsonValue::string(jobKindName(result.kind)));
    if (result.status != JobStatus::Ok)
        v.set("status", JsonValue::string("failed"));
    if (!result.error.empty())
        v.set("error", JsonValue::string(result.error));
    if (result.retries != d.retries)
        v.set("retries", JsonValue::number(result.retries));
    if (result.cacheHits != d.cacheHits)
        v.set("cacheHits", JsonValue::number(result.cacheHits));
    if (result.cacheMisses != d.cacheMisses)
        v.set("cacheMisses", JsonValue::number(result.cacheMisses));
    if (result.wallMs != d.wallMs)
        v.set("wallMs", JsonValue::number(result.wallMs));
    if (result.saturationLoad != d.saturationLoad)
        v.set("saturationLoad",
              JsonValue::number(result.saturationLoad));
    if (result.bestThroughput != d.bestThroughput)
        v.set("bestThroughput",
              JsonValue::number(result.bestThroughput));
    JsonValue points = JsonValue::array();
    for (const ScenarioResult &p : result.points)
        points.push(toJson(p));
    v.set("points", std::move(points));
    return v;
}

JobResult
jobResultFromJson(const JsonValue &v, const std::string &path)
{
    ObjectReader obj(v, path);
    JobResult result;
    const JsonValue *kind = obj.take("kind");
    if (!kind)
        fatal(path, ": missing 'kind'");
    result.kind =
        jobKindFromName(kind->asString(obj.sub("kind")),
                        obj.sub("kind"));
    if (const JsonValue *m = obj.take("status")) {
        const std::string &s = m->asString(obj.sub("status"));
        if (s == "failed")
            result.status = JobStatus::Failed;
        else if (s != "ok")
            fatal(obj.sub("status"), ": unknown status '", s, "'");
    }
    if (const JsonValue *m = obj.take("error"))
        result.error = m->asString(obj.sub("error"));
    if (const JsonValue *m = obj.take("retries"))
        result.retries = m->asInt(obj.sub("retries"));
    if (const JsonValue *m = obj.take("cacheHits"))
        result.cacheHits = m->asInt(obj.sub("cacheHits"));
    if (const JsonValue *m = obj.take("cacheMisses"))
        result.cacheMisses = m->asInt(obj.sub("cacheMisses"));
    if (const JsonValue *m = obj.take("wallMs"))
        result.wallMs = m->asDouble(obj.sub("wallMs"));
    if (const JsonValue *m = obj.take("saturationLoad"))
        result.saturationLoad =
            m->asDouble(obj.sub("saturationLoad"));
    if (const JsonValue *m = obj.take("bestThroughput"))
        result.bestThroughput =
            m->asDouble(obj.sub("bestThroughput"));
    const JsonValue *points = obj.take("points");
    if (!points)
        fatal(path, ": missing 'points'");
    const std::string pointsPath = obj.sub("points");
    std::size_t i = 0;
    for (const JsonValue &p : points->items(pointsPath))
        result.points.push_back(
            scenarioResultFromJson(p, elem(pointsPath, i++)));
    obj.finish();
    return result;
}

// --- text round trip --------------------------------------------------------

std::string
serializeScenario(const Scenario &scenario)
{
    return toJson(scenario).dump(2) + "\n";
}

std::string
serializePlan(const ExperimentPlan &plan)
{
    return toJson(plan).dump(2) + "\n";
}

Scenario
parseScenario(const std::string &text, const std::string &origin)
{
    return scenarioFromJson(JsonValue::parse(text, origin));
}

ExperimentPlan
parsePlan(const std::string &text, const std::string &origin)
{
    return planFromJson(JsonValue::parse(text, origin));
}

} // namespace snoc
