"""kpoly benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the repository root; the library is imported from ./src.  A run
alternates rounds of set-ups and passes until another pass would end after
``--seconds``, and ends with a round of set-ups; at least one pass always
runs.  A set-up (import, input generation, JSON writing) runs in a fresh
process.  ``setup_s`` is the median over the run's set-ups of their time
scaled to a host on which one calibration chunk takes REFERENCE_CHUNK_S,
from the chunks run around each set-up: this host's speed changes by up to
1.8x for tens of seconds at a time.  A
pass runs the whole op list in a fresh process, so the library's caches
start cold as they do for every ``kpoly`` invocation.  Ops run one at a time
in one thread (a closed loop with one client).

``--trace 0`` reports the end-to-end metrics: ``setup_s``; ``wall_rel``, the
sum over a pass of each op's latency divided by the host's speed around the
op (the mean time of the calibration chunks run within 0.5 s of it, see
worker.py), and ``latency_p50_rel`` and ``latency_p95_rel``, percentiles of
those per-op ratios; and ``peak_rss_mb``; all medians over the passes.  The
raw ``wall_s``, ``ops_per_s``, latency in ms and ``failed_frac`` are printed
above the JSON line.  ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics of
layers.py, medians over the traced passes, and the trace overhead: traced
minus plain pass wall time, in seconds and as a calibrated fraction.  The
span files and a JSON record of every run (environment, calibration timings,
per-pass figures) go to perfbench/_out/.

Every op's output is checked (exit code, census count, route agreement,
oracle agreement, verdicts).  A wrong or failed op is counted, never
retried, and makes the run exit 1.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("census", "three_route_s5", "theorem_c", "cli_mix")
SETUPS_PER_ROUND = 2
# setup_s is in seconds on a host where one calibration chunk takes this long
REFERENCE_CHUNK_S = 0.002
PROCESS_TIMEOUT_S = 150

# Times in calibration chunks (see worker.calibration_chunk): on a shared host
# the raw wall times of identical runs differed by up to 1.7x, their ratio to
# the chunk times taken around each op much less.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_rel", "ratio"),
    ("latency_p50_rel", "ratio"),
    ("latency_p95_rel", "ratio"),
    ("peak_rss_mb", "MB"),
)
RAW_UNITS = {"wall_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms"}


def per_layer_units() -> dict:
    units = {f"{m}.{f}.s": "s" for m, f in layers.LAYERS}
    units.update({f"{name}.calls": "count" for name in layers.CALL_COUNTS})
    units["cli.self_s"] = "s"
    units["schubert.count_zero_one.jobs2_s"] = "s"
    units.update(dict.fromkeys(layers.COUNTERS, "count"))
    units.update({rate: rate.split(".")[1].split("_")[0] for rate, _, _ in layers.RATES})
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("KPOLY_CAP_SUBSETS", None)
    proc = subprocess.run(
        [sys.executable, WORKER, *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def steal_ticks():
    """Steal ticks of all CPUs so far (the 8th field of /proc/stat's cpu line)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rounds(name, seed, seconds, trace, work, tag):
    """Set-up times and pass results of one run (see the module docstring)."""
    setup_args = ["setup", "--workload", name, "--seed", seed, "--dir", work]
    spec = os.path.join(work, "spec.json")
    setups, passes = [], []
    deadline = time.monotonic() + seconds
    while True:
        # all set-ups share one directory, so only the first writes the
        # input files (see workloads._Writer)
        setups += [spawn(setup_args) for _ in range(SETUPS_PER_ROUND)]
        if len({p["traced"] for p in passes}) == (2 if trace else 1):
            typical = statistics.median(p["process_s"] for p in passes)
            if time.monotonic() + typical > deadline:
                return setups, passes
        args = ["pass", "--spec", spec]
        traced = trace and len(passes) % 2 == 1
        if traced:
            args += ["--trace", os.path.join(OUT, f"{tag}-pass{len(passes)}.spans.jsonl")]
            if name == "census" and len(passes) == 1:
                args.append("--jobs2")
        t0 = time.monotonic()
        res = spawn(args)
        res["traced"] = traced
        res["process_s"] = time.monotonic() - t0
        passes.append(res)


def end_to_end_metrics(setups, plain):
    """(gated metrics, raw figures) of the plain passes of one run."""
    def med(f):
        return statistics.median(f(p) for p in plain)

    metrics = {
        "setup_s": statistics.median(
            s["setup_s"] * REFERENCE_CHUNK_S / s["chunk_s"] for s in setups),
        "wall_rel": med(lambda p: p["wall_rel"]),
        "latency_p50_rel": med(lambda p: percentile(p["latencies_rel"], 0.50)),
        "latency_p95_rel": med(lambda p: percentile(p["latencies_rel"], 0.95)),
        "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
    }
    raw = {
        "wall_s": med(lambda p: p["wall_s"]),
        "ops_per_s": med(lambda p: len(p["latencies"]) / p["wall_s"]),
        "latency_p50_ms": med(lambda p: percentile(p["latencies"], 0.50)) * 1e3,
        "latency_p95_ms": med(lambda p: percentile(p["latencies"], 0.95)) * 1e3,
    }
    return metrics, raw


def per_layer_metrics(units, plain, traced):
    """Layer metrics, low medians over the traced passes (so counts stay
    whole; 0 where no traced pass has one), and the trace overhead against
    the plain passes."""
    metrics = {}
    for key in units:
        values = [p["layers"][key] for p in traced if key in p["layers"]]
        metrics[key] = statistics.median_low(values) if values else 0.0
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_frac"] = (statistics.median(p["wall_rel"] for p in traced)
                                      / statistics.median(p["wall_rel"] for p in plain) - 1)
    return metrics


def run_workload(name, seed, seconds, trace):
    """Set up, run the passes and return (result object, report lines)."""
    tag = f"{name}-seed{seed}-trace{trace}"
    work = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
    steal0, t0 = steal_ticks(), time.monotonic()
    try:
        setups, passes = run_rounds(name, seed, seconds, trace, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1 = steal_ticks()
    env["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    env["run_s"] = time.monotonic() - t0

    for p in passes:
        p["wall_s"] = sum(p["latencies"])
        p["wall_rel"] = sum(p["latencies_rel"])
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if trace:
        units, raw = per_layer_units(), {}
        metrics = per_layer_metrics(units, plain, traced)
    else:
        units = dict(END_TO_END)
        metrics, raw = end_to_end_metrics(setups, plain)
    attempted = sum(len(p["latencies"]) for p in passes)
    wrong = [w for p in passes for w in p["wrong"]]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    lines = [f"workload {name}  seed {seed}  trace {trace}  passes {len(passes)} "
             f"({len(traced)} traced)  ops/pass {len(passes[0]['latencies'])}",
             "  pass traced   wall_s  calib_before_s  calib_after_s  wall_rel  rss_mb"]
    for i, p in enumerate(passes):
        lines.append(f"  {i:4d} {int(p['traced']):6d} {p['wall_s']:8.3f} {p['calib_s'][0]:15.4f}"
                     f" {p['calib_s'][1]:14.4f} {p['wall_rel']:9.1f} {p['peak_rss_mb']:7.1f}")
    lines.append("  set-ups, raw s / chunk ms: "
                 + " ".join(f"{s['setup_s']:.4f}/{s['chunk_s'] * 1e3:.2f}" for s in setups))
    for k in units:
        lines.append(f"  {k:40s} {metrics[k]:14.6g} {units[k]}")
    for k, value in raw.items():
        lines.append(f"  {k:40s} {value:14.6g} {RAW_UNITS[k]}  (raw; reported, not gated)")
    lines.append(f"  failed_frac {len(wrong) / attempted:.6g} ({len(wrong)} of {attempted} ops)")
    for w in wrong[:10]:
        lines.append(f"  WRONG: {w}")
    for label, rc in passes[0]["probes"].items():
        lines.append(f"  known-defect probe {label} (not timed, not counted): {rc} (exit 2 expected)")
    lines.append("  env: " + json.dumps(env))
    record = {"workload": name, "seed": seed, "trace": trace, "env": env, "setups": setups,
              "passes": [{k: v for k, v in p.items() if not k.startswith("latencies")}
                         for p in passes],
              "result": result}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="kpoly benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "kpoly", "cli.py")):
        print(f"error: no kpoly sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
