"""Seeded plan generators for the end-to-end benchmark.

Each workload is one batch campaign: `snoc run` executes every job of
the plan, one campaign in flight, no arrival schedule. `--seed` sets
every scenario and routing seed (through a hash, so the plans do not
depend on the Python version); the sizes and axes never change with the
seed, so two seeds cost the same amount of simulation.

Run as a script to write one plan:

    python3 bench/e2e/workloads.py synth_sparse 1 > plan.json
"""

import hashlib
import json
import sys

SIZES = {
    # Cycle windows are sized so one `snoc run` of each workload takes
    # about 2-3 s of wall time at 4 threads on a 4-core host; a
    # measured run repeats the campaign to fill its time budget.
    "synth_sparse": {"warmup": 2000, "measure": 13000},
    "synth_dense": {"warmup": 1000, "measure": 2000},
    "large_sharded": {"warmup": 500, "measure": 6000},
    "reactive": {"trace_cycles": 9000, "cl_warmup": 500, "cl_measure": 3000},
    "store_roundtrip": {"points": 5000, "warmup": 50, "measure": 200},
}

SN_200 = "sn_subgr_200"
NETS_54 = ["sn_54", "t2d_54", "cm_54", "fbf_54", "pfbf_54"]
TRACE_WORKLOADS = [
    "barnes", "canneal", "cholesky", "dedup", "ferret", "fft",
    "fluidanimate", "ocean-c", "radiosity", "radix", "streamcluster",
    "vips", "volrend", "water-s",
]


class Seeds:
    """Deterministic 32-bit seed stream for one (workload, seed)."""

    def __init__(self, workload, seed):
        self.prefix = f"{workload}:{seed}:"
        self.n = 0

    def next(self):
        self.n += 1
        h = hashlib.sha256(f"{self.prefix}{self.n}".encode()).digest()
        return int.from_bytes(h[:4], "little") or 1


def _scenario(seeds, topology, sim=None, **members):
    s = {"topology": topology}
    s.update(members)
    s["seed"] = seeds.next()
    s["routingSeed"] = seeds.next()
    if sim:
        s["sim"] = {"warmupCycles": sim[0], "measureCycles": sim[1]}
    return s


def synth_sparse(seed):
    # Most routers idle: the O(nodes)/cycle source draw and idle-skip
    # set the cost. All jobs are non-stopping sweeps, so all batch.
    z = SIZES["synth_sparse"]
    seeds = Seeds("synth_sparse", seed)
    jobs = []
    for topo in [SN_200, "cm3", "pfbf3", "t2d3"]:
        for pattern in ["RND", "ADV1"]:
            for routing in ["minimal", "ugal-l"]:
                s = _scenario(seeds, topo, (z["warmup"], z["measure"]),
                              routing=routing,
                              traffic={"pattern": pattern})
                jobs.append({"scenario": s,
                             "sweep": {"loads": [0.002, 0.005, 0.01, 0.02],
                                       "stopAtSaturation": False}})
    return {"name": f"e2e synth_sparse seed {seed}", "jobs": jobs}


def synth_dense(seed):
    # Busy routers: per-router route and switch-allocation cost
    # dominates, the source draw is a small share. Two bisection
    # saturation searches run unbatched beside the batched sweeps.
    z = SIZES["synth_dense"]
    seeds = Seeds("synth_dense", seed)
    window = (z["warmup"], z["measure"])
    jobs = []
    for topo in [SN_200, "cm4", "fbf3", "pfbf4"]:
        for pattern in ["RND", "ADV1"]:
            s = _scenario(seeds, topo, window, routing="ugal-l",
                          traffic={"pattern": pattern})
            jobs.append({"scenario": s,
                         "sweep": {"loads": [0.1, 0.2, 0.3, 0.45],
                                   "stopAtSaturation": False}})
    for topo, pattern in [(SN_200, "RND"), ("cm4", "ADV1")]:
        s = _scenario(seeds, topo, window, routing="ugal-l",
                      traffic={"pattern": pattern})
        jobs.append({"scenario": s,
                     "saturation": {"loLoad": 0.05, "hiLoad": 0.8,
                                    "tolerance": 0.05}})
    return {"name": f"e2e synth_dense seed {seed}", "jobs": jobs}


def large_sharded(seed):
    # One 1296-router network per point, stepped by the shard layer
    # (the benchmark sets SNOC_SIM_SHARDS=4 for this workload).
    z = SIZES["large_sharded"]
    seeds = Seeds("large_sharded", seed)
    window = (z["warmup"], z["measure"])
    jobs = []
    for routing, pattern, load in [("minimal", "RND", 0.05),
                                   ("ugal-l", "RND", 0.3),
                                   ("minimal", "ADV1", 0.1)]:
        jobs.append({"scenario": _scenario(
            seeds, "sn_subgr_1296", window, routing=routing,
            traffic={"pattern": pattern}, load=load)})
    return {"name": f"e2e large_sharded seed {seed}", "jobs": jobs}


def reactive(seed):
    # Trace replay (trace/ + power/ layers, serial path) plus
    # closed-loop MOSI window sweeps (workload/ layer).
    z = SIZES["reactive"]
    seeds = Seeds("reactive", seed)
    jobs = []
    for workload in TRACE_WORKLOADS:
        for topo in [SN_200, "cm3", "fbf3", "pfbf3"]:
            s = _scenario(seeds, topo, link={"hopsPerCycle": 9},
                          traffic={"workload": workload,
                                   "workloadCycles": z["trace_cycles"]},
                          energy={})
            jobs.append({"scenario": s})
    for topo in [SN_200, "t2d3"]:
        s = _scenario(seeds, topo, (z["cl_warmup"], z["cl_measure"]),
                      traffic={"pattern": "RND",
                               "closedLoop": {"forwardFraction": 0.3,
                                              "sweep": "window"}})
        jobs.append({"scenario": s,
                     "sweep": {"loads": [1, 4, 16],
                               "stopAtSaturation": False}})
    return {"name": f"e2e reactive seed {seed}", "jobs": jobs}


def store_roundtrip(seed):
    # Thousands of tiny points: per-point exp/ overhead (plan parse,
    # network construction, store keys and I/O, journal, sink)
    # dominates, not simulation. Loads and patterns rotate so every
    # point is a distinct store key.
    z = SIZES["store_roundtrip"]
    seeds = Seeds("store_roundtrip", seed)
    patterns = ["RND", "SHF", "REV", "ADV1"]
    jobs = []
    for i in range(z["points"]):
        s = _scenario(seeds, NETS_54[i % len(NETS_54)],
                      (z["warmup"], z["measure"]),
                      traffic={"pattern": patterns[(i // 5) % 4]},
                      load=round(0.01 + 0.01 * ((i // 20) % 8), 2),
                      energy={})
        jobs.append({"scenario": s})
    return {"name": f"e2e store_roundtrip seed {seed}", "jobs": jobs}


WORKLOADS = {
    "synth_sparse": synth_sparse,
    "synth_dense": synth_dense,
    "large_sharded": large_sharded,
    "reactive": reactive,
    "store_roundtrip": store_roundtrip,
}


def plan_text(workload, seed):
    """The plan file for (workload, seed), as `snoc run` reads it."""
    return json.dumps(WORKLOADS[workload](seed), indent=1) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py <{'|'.join(WORKLOADS)}> <seed>")
    sys.stdout.write(plan_text(sys.argv[1], int(sys.argv[2])))
