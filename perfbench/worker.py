"""One benchmark process: set a workload up, or run one pass of it.

    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py pass --spec D/spec.json [--trace PATH] [--jobs2]

``setup`` imports kpoly, generates the workload's inputs, writes them and the
op list to D/spec.json, and reports how long that took and the calibration
chunk time around it.  ``pass`` runs every
op once as a call to ``kpoly.cli.main(argv)`` with stdout and stderr
captured, in one thread, each op starting when the previous one returned.
A fixed calibration loop runs in chunks just before and just after the ops,
and from a timer signal while they run.  With ``--trace`` the layer
functions are wrapped (see layers.py) and the spans are written to PATH at
exit.  Either mode prints one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import itertools
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

CHUNK_ROUNDS = 5_000    # one calibration chunk: about 2 ms
EDGE_CHUNKS = 100       # chunks just before and just after the ops
SETUP_CHUNKS = 25       # chunks just before and just after a set-up
SAMPLE_EVERY_S = 0.05   # timer period for chunks while the ops run
LOCAL_WINDOW_S = 0.5    # chunks this close to an op measure the host's speed for it


def calibration_chunk() -> float:
    """Seconds for a fixed dict/tuple churn loop that uses no kpoly code.
    The host's speed drifts within a second, so chunks also run from a
    timer while the ops run, inside long ops too (see run_pass)."""
    t0 = time.perf_counter()
    table = {}
    for i in range(CHUNK_ROUNDS):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + 1
        if len(table) > 2048:
            table.clear()
    return time.perf_counter() - t0


def calibration_inside(chunks):
    """Function giving the seconds of calibration chunks that started in
    [start, end); chunks must be in time order."""
    starts = [t for t, _ in chunks]
    total = list(itertools.accumulate((c for _, c in chunks), initial=0.0))

    def inside(start, end):
        return total[bisect.bisect_left(starts, end)] - total[bisect.bisect_left(starts, start)]

    return inside


def relative_latencies(ops, chunks) -> list:
    """Each op's latency divided by the mean time of the calibration chunks
    run within LOCAL_WINDOW_S of the op, that is, in host-speed units."""
    starts = [t for t, _ in chunks]
    out = []
    for start, elapsed in ops:
        lo = bisect.bisect_left(starts, start - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(starts, start + elapsed + LOCAL_WINDOW_S)
        out.append(elapsed / statistics.fmean(c for _, c in chunks[lo:hi]))
    return out


def _call(cli, argv):
    """Run one op; return its exit code (or the exception that escaped),
    stdout, stderr and start and end times."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed op
            rc = f"raised {type(exc).__name__}"
        end = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), start, end


def setup(args) -> dict:
    """Time the import, input generation and JSON writing, and the mean
    calibration chunk just before and just after them."""
    chunks = [calibration_chunk() for _ in range(SETUP_CHUNKS)]
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(args.dir, exist_ok=True)
    spec = workloads.build(args.workload, args.seed, args.dir)
    with open(os.path.join(args.dir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    elapsed = time.perf_counter() - t0
    chunks += [calibration_chunk() for _ in range(SETUP_CHUNKS)]
    return {"setup_s": elapsed, "chunk_s": statistics.fmean(chunks)}


def run_pass(args) -> dict:
    sys.path.insert(0, SRC)
    import workloads
    from kpoly import cli

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = None
    if args.trace:
        from layers import Recorder

        recorder = Recorder()
        recorder.install()
    chunks = []  # (start, seconds) of every calibration chunk, in time order
    spans = []   # (start, end) of every op

    def calibrate(*_):
        chunks.append((time.perf_counter(), calibration_chunk()))

    for _ in range(EDGE_CHUNKS):
        calibrate()
    wrong = []
    signal.signal(signal.SIGALRM, calibrate)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        for i, op in enumerate(spec["ops"]):
            if recorder:
                recorder.op_id = i
            rc, out, err, start, end = _call(cli, op["argv"])
            spans.append((start, end))
            if not workloads.check(op, rc, out, err):
                wrong.append({"argv": op["argv"], "exit": rc, "stderr": err[-300:]})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    for _ in range(EDGE_CHUNKS):
        calibrate()
    inside = calibration_inside(chunks)
    ops = [(start, end - start - inside(start, end)) for start, end in spans]
    result = {
        "latencies": [elapsed for _, elapsed in ops],
        "latencies_rel": relative_latencies(ops, chunks),
        "wrong": wrong,
        "calib_s": [sum(c for _, c in chunks[:EDGE_CHUNKS]),
                    sum(c for _, c in chunks[-EDGE_CHUNKS:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probes": {},
    }
    if recorder:
        result["layers"] = recorder.layer_metrics(inside)
    for probe in spec["probes"]:
        if recorder:
            recorder.op_id = probe["label"]
        rc = _call(cli, probe["argv"])[0]
        result["probes"][probe["label"]] = rc
    if recorder:
        if args.jobs2:
            count = recorder.originals["schubert.count_zero_one"]
            t0 = time.perf_counter()
            n = count(workloads.CENSUS_P, jobs=2)
            result["layers"]["schubert.count_zero_one.jobs2_s"] = time.perf_counter() - t0
            if n != workloads.CENSUS_COUNT:
                wrong.append({"call": f"count_zero_one({workloads.CENSUS_P}, jobs=2)", "count": n})
        recorder.write(args.trace, {"workload": spec["workload"], "seed": spec["seed"],
                                    "calib_s": result["calib_s"]})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--dir", required=True)
    p = sub.add_parser("pass")
    p.add_argument("--spec", required=True)
    p.add_argument("--trace", help="wrap the layers and write the spans to this path")
    p.add_argument("--jobs2", action="store_true",
                   help="with --trace, also time the census with jobs=2")
    args = parser.parse_args()
    result = setup(args) if args.mode == "setup" else run_pass(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
