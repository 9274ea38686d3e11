"""pulpsim benchmark: seeded guest programs on platforms/pulp-open.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  One process runs one guest at a time
(a closed loop, no threads).  Each repetition sets up a fresh platform,
runs the guest to its exit and checks the result against an independent
reference.  Timings are process CPU time, reported as medians over the
repetitions that fit in `--seconds`.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` half the time runs untraced and half with timing wrappers on
the layer boundaries, and the last line holds the per-layer metrics.
Details, layer predictions and the baseline are in perfbench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# guest size per workload: passes, repetitions, tiles
SIZES = {"fc_control": 150, "cluster_matmul": 4, "dma_conv_io": 64}
TINY_SIZES = {"fc_control": 2, "cluster_matmul": 1, "dma_conv_io": 3}
MIN_RUNS = 5
SELF_TEST_SEEDS = range(1, 21)
SETUP_PHASES = ("config.parse_s", "build.elaborate_s", "asm.assemble_s")


SRC = ROOT / "src"
if not (SRC / "pulpsim" / "__init__.py").is_file():
    raise SystemExit("perfbench: %s holds no simulator source; run from a checkout" % SRC)
sys.path.insert(0, str(SRC))
# numpy's thread pools would add idle threads to the process CPU time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pulpsim                                          # noqa: E402
from pulpsim.asm import assemble                        # noqa: E402
from pulpsim.tracing import stats_report, stable_stats  # noqa: E402

import calib                                            # noqa: E402
import guests                                           # noqa: E402
import spans                                            # noqa: E402

PLATFORM_TEXT = (SRC / "pulpsim" / "platforms" / "pulp-open.json").read_text()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def setup(guest):
    """Parse, build, assemble, load and reset; returns the platform and phase times."""
    clock = time.process_time
    t0 = clock()
    desc = pulpsim.apply_overrides(pulpsim.parse(PLATFORM_TEXT), [])
    t1 = clock()
    plat = pulpsim.build(desc)
    t2 = clock()
    program = assemble(guest.source, origin=guests.L2)
    t3 = clock()
    guest.load(plat, program)
    plat.reset()
    t4 = clock()
    return plat, program, {"config.parse_s": t1 - t0, "build.elaborate_s": t2 - t1,
                           "asm.assemble_s": t3 - t2, "setup_s": t4 - t0}


def run_once(guest):
    plat, program, rec = setup(guest)
    c0 = time.process_time()
    status = plat.run(max_cycles=guest.max_cycles())
    rec["run_s"] = time.process_time() - c0
    return plat, program, status, rec


def digest(stats):
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]


def measure(guest, seconds, tracer=None):
    """Repeat the guest until `seconds` of wall time and MIN_RUNS have passed.

    Each repetition first times the calibration kernel; every host time of
    the repetition is kept raw (`cpu_*`) and rescaled to reference speed.
    Only the current repetition's platform is alive while it is timed.
    """
    records = []
    deadline = time.monotonic() + seconds
    while len(records) < MIN_RUNS or time.monotonic() < deadline:
        plat = program = None
        gc.collect()
        if tracer is not None:
            tracer.clear()
        factor = calib.host_factor()
        plat, program, status, cpu = run_once(guest)
        rec = {"host_factor": factor}
        for key, value in cpu.items():
            rec["cpu_" + key] = value
            rec[key] = value * factor
        rec["errors"] = guest.check(plat, status, program)
        stats = stable_stats(stats_report(plat, status))
        rec["digest"] = digest(stats)
        rec["sim_mips"] = stats["instructions_total"] / rec["run_s"] / 1e6
        if tracer is not None:
            self_s, rec["calls"] = tracer.summary()
            rec["self_s"] = {layer: t * factor for layer, t in self_s.items()}
        records.append(rec)
    return records, (plat, program, stats)


def corruption_detected(guest, plat, program):
    """Flip one byte of every checked window (and one register bit): each must fail."""
    exp = guest.expected(program)
    missed = []
    for name, (addr, data) in exp["windows"].items():
        pos = addr + len(data) // 2
        byte = plat.peek(pos, 1)
        plat.poke(pos, bytes([byte[0] ^ 0x01]))
        if not guest.check(plat, 0, program):
            missed.append(name)
        plat.poke(pos, byte)
    for path in exp.get("regs", {}):
        regs = plat.lookup(path).regs
        regs[7] ^= 1
        if not guest.check(plat, 0, program):
            missed.append(path + " registers")
        regs[7] ^= 1
    return missed


def identity(stats, dig):
    """Simulated results: a pure speed-up leaves every one of them unchanged."""
    out = {"sim.time_ps": stats["global_time_ps"]}
    for name, dom in stats["domains"].items():
        out["sim.%s.cycles" % name] = dom["cycles"]
    out["sim.instructions"] = stats["instructions_total"]
    active = sum(c["active_cycles"] for c in stats["cores"].values() if c["instr_retired"])
    out["core.ipc"] = stats["instructions_total"] / active if active else 0.0
    out["sim.stats_digest"] = dig
    return out


def layer_counts(stats):
    """Per-layer counters of one untraced run, from stats_report."""
    caches = stats.get("caches", {})

    def hit_ratio(entries):
        hits = sum(c["hits"] for c in entries)
        total = hits + sum(c["misses"] for c in entries)
        return hits / total if total else 0.0

    tcdm = stats["memories"]["cluster/tcdm"]
    tcdm_accesses = tcdm["reads"] + tcdm["writes"]
    return {
        "engine.events": stats["engine"]["events_executed"],
        "engine.overflow_promotions": stats["engine"]["overflow_promotions"],
        "icache.l1_hit_ratio": hit_ratio([c for p, c in caches.items() if p != "cluster/l15"]),
        "icache.l15_hit_ratio": hit_ratio([caches["cluster/l15"]]),
        "interconnect.bridge_queued_cycles": stats["routers"]["cluster/bridge"]["queued_cycles"],
        "memory.accesses": sum(m["reads"] + m["writes"] for m in stats["memories"].values()),
        "memory.tcdm_contention_ratio":
            tcdm["contentions"] / tcdm_accesses if tcdm_accesses else 0.0,
        "event_unit.barriers": stats["event_units"]["cluster/event_unit"]["barriers_passed"],
        "accel.conflict_cycles": stats["accelerators"]["cluster/accel"]["conflict_cycles"],
    }


def peak_rss_mb(workload, seed):
    """ru_maxrss of a fresh process that sets up and runs this workload once."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--rss-probe", "--workload", workload,
         "--seed", str(seed)], capture_output=True, text=True, timeout=170, check=True)
    return int(proc.stdout.split()[-1]) / 1024.0


def median(records, key):
    return statistics.median(r[key] for r in records)


def per_layer_metrics(tracer, plain, traced, stats):
    m = {}
    for layer in spans.LAYERS:
        m[layer + ".self_s"] = statistics.median(r["self_s"].get(layer, 0.0) for r in traced)
    m.update(layer_counts(stats))
    calls = traced[-1]["calls"]
    m["core.steps"] = tracer.calls_of(calls, "core", "event")
    m["dma.bursts"] = tracer.calls_of(calls, "dma", "event")
    m["accel.chunks"] = tracer.calls_of(calls, "accel", "event")
    m["periph.udma_beats"] = tracer.calls_of(calls, "periph", "event")
    m["engine.us_per_event"] = m["engine.self_s"] / m["engine.events"] * 1e6
    m["core.us_per_step"] = m["core.self_s"] / m["core.steps"] * 1e6 if m["core.steps"] else 0.0
    for phase in SETUP_PHASES:
        m[phase] = median(plain, phase)
    m["trace.overhead"] = median(traced, "run_s") / median(plain, "run_s")
    return m


def bench(workload, seed, seconds, trace):
    guest = guests.WORKLOADS[workload](seed, SIZES[workload])
    rss = None if trace else peak_rss_mb(workload, seed)
    plain, (plat, program, stats) = measure(guest, seconds / 2 if trace else seconds)
    problems = ["%s: %s" % (i, e) for i, r in enumerate(plain) for e in r["errors"]]
    missed = corruption_detected(guest, plat, program)
    problems += ["a corrupted %s passed the check" % name for name in missed]
    plat = program = None
    dig = plain[0]["digest"]
    traced = []
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = measure(guest, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        problems += ["traced %d: %s" % (i, e) for i, r in enumerate(traced) for e in r["errors"]]
    runs = plain + traced
    if any(r["digest"] != dig for r in runs):
        problems.append("simulated stats differ between repetitions of one seed")

    if trace:
        metrics = per_layer_metrics(tracer, plain, traced, stats)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / ("spans-%s-seed%d.npz" % (workload, seed)))
    else:
        metrics = {"run_s": median(plain, "run_s"), "sim_mips": median(plain, "sim_mips"),
                   "setup_s": median(plain, "setup_s"), "peak_rss_mb": rss}
    listed = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(metrics) != listed:
        raise RuntimeError("metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ listed))
    failed = sum(1 for r in runs if r["errors"])
    ident = identity(stats, dig)

    print("workload %s seed %d size %d: %d runs (%d traced), %d failed, failed_share %.4f"
          % (workload, seed, guest.size, len(runs), len(traced), failed, failed / len(runs)))
    print("timings: median over %d untraced runs%s, process CPU time at reference host speed" % (
        len(plain), " and %d traced runs" % len(traced) if trace else ""))
    for name, value in metrics.items():
        print("  %-36s %.6g %s" % (name, value, UNITS[name]))
    print("  raw process CPU time: run %.6g s, setup %.6g s; median host factor %.4f" % (
        median(plain, "cpu_run_s"), median(plain, "cpu_setup_s"), median(plain, "host_factor")))
    for name, value in ident.items():
        print("  %-36s %s" % (name, value))
    for p in problems[:20]:
        print("problem: " + p)
    OUT.mkdir(exist_ok=True)
    (OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(json.dumps({
        "workload": workload, "seed": seed, "size": guest.size, "metrics": metrics,
        "identity": ident, "problems": problems,
        "runs": [{k: v for k, v in r.items() if k not in ("calls",)} for r in runs],
    }, indent=1))
    return {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }


def rss_probe(workload, seed):
    guest = guests.WORKLOADS[workload](seed, SIZES[workload])
    run_once(guest)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def self_test():
    """At tiny sizes, every workload passes untraced and traced with equal
    stats for each seed, and a corrupted result window fails its check."""
    ok = True
    for name, cls in guests.WORKLOADS.items():
        for seed in SELF_TEST_SEEDS:
            guest = cls(seed, TINY_SIZES[name])
            plat, program, status, _ = run_once(guest)
            errors = guest.check(plat, status, program)
            plain = digest(stable_stats(stats_report(plat, status)))
            errors += ["a corrupted %s passed the check" % m
                       for m in corruption_detected(guest, plat, program)]
            tracer = spans.Tracer()
            tracer.install()
            try:
                tplat, tprogram, tstatus, _ = run_once(guest)
            finally:
                tracer.uninstall()
            errors += ["traced: " + e for e in guest.check(tplat, tstatus, tprogram)]
            if digest(stable_stats(stats_report(tplat, tstatus))) != plain:
                errors.append("traced stats differ from untraced stats")
            if errors:
                print("%s seed %d: %s" % (name, seed, "; ".join(errors)))
            ok = ok and not errors
        print("%-16s seeds %d-%d checked" % (name, SELF_TEST_SEEDS[0], SELF_TEST_SEEDS[-1]))
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(guests.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.rss_probe:
        rss_probe(args.workload, args.seed)
        return 0
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
