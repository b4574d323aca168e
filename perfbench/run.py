#!/usr/bin/env python3
"""mcnsim benchmark: three scale workloads, host time split by module.

Run from the repository root:

    python3 perfbench/run.py --workload mcn_multi64_iperf --seed 1 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --record          # rewrite reference.json

The first call builds perfbench/mcnbench (against the repository's
own top-level CMake project) under .bench_build/, or under
$CARGO_TARGET_DIR when that is set. Each measured run is a fresh
mcnbench process, so peak RSS and set-up time are per run.

--trace 0 reports the end-to-end metrics (medians over the runs that
fit in --seconds). --trace 1 adds one traced run with the event
queues' dispatch profiler on and reports the per-layer metrics.
Every run's modeled output (a digest of the stats registry plus the
headline values) must equal the reference recorded for its seed in
reference.json, or all its operations count as failed.

The last stdout line is the result object; the line before it holds
the run details and the host facts (nproc, compiler, flags, engine).
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep perfbench/ free of build output
import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

# Seeds fold onto this many input variants; reference.json holds the
# modeled output of every one, so any seed can be checked.
VARIANTS = 16

# Why each workload is here, and what it must keep.
WORKLOADS = {
    # 64 servers x 2 MCN DIMMs at MCN level 5; iperf server on one
    # host, the other 191 nodes stream to it for 10 ms. Bulk TCP over
    # the MCN path: cpu (core.slot) dominates, then mcn and mem. On
    # the classic engine, so a 1-shard engine must stay as cheap.
    "mcn_multi64_iperf": {"nodes": 192, "stride": 3, "absent": ()},
    # 16 racks x 16 nodes, 4 spines, 10 GbE NICs; 255 clients to one
    # node. Same net layer via NICs and switches, no MCN parts: any
    # MCN-side change must leave it unchanged. Sharded engine, 4
    # workers: the workload a parallel-engine speedup must show on.
    "fattree256_iperf": {"nodes": 256, "stride": 1, "absent": ("mcn",)},
    # NPB MG on 128 ranks (8 servers x 2 DIMMs, one rank per core),
    # classic engine. Exercises dist and the coroutine runtime. Above
    # 96 ranks MPI_Init stalls ~2.56 s of modeled time on SYN
    # retransmit backoff while the mesh-setup poll loop fires ~47 M
    # task-delay events; 96 ranks run in ~0.5 s, 112 in ~14 s. Keep
    # this at 112 ranks or more so the defect stays visible until it
    # is fixed. --rotate shifts the placement by whole servers.
    "mcn_mpi128_mg": {"servers": 8, "absent": ()},
}

SETUP_PROBES = 9


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then bring mcnbench up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"mcnsim sources not found under {ROOT}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "mcnbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "mcnbench")


def inputs(workload, seed):
    """The harness arguments for @p seed: which node serves and the
    order clients start in (iperf), or the placement rotation (MPI)."""
    variant = seed % VARIANTS
    rng = random.Random(variant)
    w = WORKLOADS[workload]
    if "servers" in w:
        return variant, [f"--rotate={rng.randrange(w['servers'])}"]
    server = w["stride"] * rng.randrange(w["nodes"] // w["stride"])
    clients = [n for n in range(w["nodes"]) if n != server]
    rng.shuffle(clients)
    return variant, [f"--server={server}",
                     "--clients=" + ",".join(map(str, clients))]


def stats_digest(path):
    """sha256 of the stats registry groups, descriptions left out,
    keys sorted: the modeled state independent of dump formatting."""
    with open(path) as f:
        groups = json.load(f)["groups"]
    for g in groups:
        for st in g["stats"]:
            st.pop("desc", None)
    blob = json.dumps(groups, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), groups


def run_once(exe, workload, args, profile=False):
    stats = os.path.join(os.path.dirname(exe), f"stats-{workload}.json")
    cmd = [exe, f"--workload={workload}", f"--stats-out={stats}", *args]
    if profile:
        cmd.append("--profile")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"mcnbench exited {r.returncode}: {' '.join(cmd)[:200]}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    res["digest"], res["groups"] = stats_digest(stats)
    return res


def setup_once(exe, workload):
    r = subprocess.run([exe, f"--workload={workload}", "--setup-only"],
                       stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"mcnbench --setup-only exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])["setup_s"]


def modeled_record(res):
    return {"digest": res["digest"], "modeled": res["modeled"]}


def check(res, ref):
    """Count a run whose modeled output differs from the reference as
    failing every operation it attempted."""
    res["correct"] = modeled_record(res) == ref
    if not res["correct"]:
        res["failed"] = res["attempted"]


def measure(exe, workload, args, ref, seconds):
    """Fresh-process runs until the next one would overrun
    @p seconds (at least one)."""
    runs = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        res = run_once(exe, workload, args)
        check(res, ref)
        res.pop("groups")
        runs.append(res)
        took = time.monotonic() - t
        if time.monotonic() - start + took > seconds:
            return runs


def layer_metrics(runs, traced, absent):
    run_s = statistics.median(r["run_s"] for r in runs)
    host_ms, events, coro_ms, task_delays = \
        layers.split_host_time(traced["profile"])
    counts = layers.count(traced["groups"], absent)
    m = {}
    for mod in layers.MODULES:
        m[f"{mod}.host_ms"] = (host_ms[mod], "ms")
        m[f"{mod}.events"] = (events[mod], "count")
    m["unattributed.host_ms"] = (host_ms["unattributed"], "ms")
    # Host time is thread time: on the sharded engine every worker's
    # dispatches count, so buckets + engine = workers x traced run_s.
    thread_ms = traced["run_s"] * 1e3 * traced["workers"]
    m["sim.engine_host_ms"] = (thread_ms - sum(host_ms.values()), "ms")
    m["sim.coro_host_ms"] = (coro_ms, "ms")
    m["sim.task_delay_events"] = (task_delays, "count")
    m["trace_overhead"] = (traced["run_s"] / run_s, "ratio")
    m["sim.events_processed"] = (traced["events"], "count")
    m["sim.ns_per_event"] = (run_s * 1e9 / traced["events"], "ns")
    for name, value in counts.items():
        if name not in layers.RATIO_ONLY:
            m[name] = (value, "ms" if name.endswith("_ms") else "count")
    attempts = counts["mcn.tx_packets"] + counts["mcn.tx_ring_full"]
    m["mcn.tx_ring_full_frac"] = (
        counts["mcn.tx_ring_full"] / attempts if attempts else 0.0,
        "ratio")
    ip = counts["net.ip_rx_packets"] + counts["net.ip_tx_packets"]
    m["net.ip_drop_frac"] = (counts["net.ip_drops"] / ip if ip else 0.0,
                             "ratio")
    mpi = traced["modeled"]
    m["dist.mpi_init_host_s"] = (
        statistics.median(r.get("mpi_init_host_s", 0.0) for r in runs), "s")
    m["dist.mpi_init_sim_ms"] = (mpi.get("mpi_init_sim_ms", 0.0), "ms")
    m["dist.mpi_makespan_ms"] = (mpi.get("mpi_makespan_ms", 0.0), "ms")
    return m


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def record(exe):
    """Write the modeled output of every workload and variant."""
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for variant in range(VARIANTS):
            _, args = inputs(workload, variant)
            res = run_once(exe, workload, args)
            if res["failed"]:
                fail(f"{workload} variant {variant}: {res['failed']} of "
                     f"{res['attempted']} operations failed")
            refs[workload][str(variant)] = modeled_record(res)
            print(workload, variant, res["modeled"], file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from the current build")
    opts = ap.parse_args()
    if opts.seed < 0:
        ap.error("--seed must be non-negative")

    exe = build()
    if opts.record:
        record(exe)
        return
    if not opts.workload:
        ap.error("--workload is required")

    workload = opts.workload
    variant, args = inputs(workload, opts.seed)
    ref = load_reference().get(workload, {}).get(str(variant))
    if ref is None:
        fail(f"no reference for {workload} variant {variant}")

    runs = measure(exe, workload, args, ref, opts.seconds)
    traced = None
    if opts.trace:
        traced = run_once(exe, workload, args, profile=True)
        check(traced, ref)
    checked = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)

    if opts.trace:
        metrics = layer_metrics(runs, traced,
                                WORKLOADS[workload]["absent"])
    else:
        setups = [setup_once(exe, workload) for _ in range(SETUP_PROBES)]
        setups += [r["setup_s"] for r in runs]
        med = statistics.median
        metrics = {
            "run_s": (med(r["run_s"] for r in runs), "s"),
            "setup_s": (med(setups), "s"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in runs), "MB"),
            "ops_ok_frac": (1.0 - failed / attempted, "ratio"),
        }

    first = runs[0]
    details = {
        "workload": workload, "seed": opts.seed, "variant": variant,
        "inputs": args[0],
        "host": {
            "nproc": os.cpu_count(), "compiler": first["compiler"],
            "cxx_flags": first["cxx_flags"], "engine": first["engine"],
            "workers": first["workers"],
        },
        "runs": [{k: r[k] for k in ("run_s", "setup_s", "peak_rss_mb",
                                    "events", "correct")} for r in runs],
        "modeled": first["modeled"],
    }
    print(json.dumps({"perfbench": details}))
    print(json.dumps({
        "correct": all(r["correct"] for r in checked),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
