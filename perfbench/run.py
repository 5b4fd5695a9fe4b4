"""almc benchmark: command batches through the CLI, end to end and per layer.

    python3 perfbench/run.py --workload diagram --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  See README.md in this directory for the
workloads and metrics.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from gen import WORKLOADS, make_batch  # noqa: E402
from spans import LAYER_METRICS, self_check  # noqa: E402

SETUP_RUNS = 15  # fresh interpreters timed for setup_s (after one warm-up)
SETUP_PER_BATCH = 5
MIN_BATCHES = 2
WORKER_TIMEOUT = 150  # seconds; one batch takes under 15 s on 2 cores
TRACE_HASH_SEEDS = ("0", "1")

END_TO_END = [("setup_s", "s"), ("batch_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("success_rate", "ratio")]


class BenchError(Exception):
    pass


def worker(mode: str, spec: str, traced: bool = False,
           hash_seed: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, spec]
    if traced:
        argv.append("--trace")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran over {WORKER_TIMEOUT} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failures_of(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    reasons = []
    for r in results:
        for k, why in enumerate(r["failures"]):
            attempted += 1
            if why:
                failed += 1
                reasons.append(f"command {k}: {why}")
    return attempted, failed, reasons


def measure(spec: str, seconds: float) -> dict:
    """End-to-end metrics: set-up over fresh interpreters, then untraced
    batches, each in a fresh process, in a closed loop for `seconds`."""
    worker("setup", spec)  # warm-up: byte-compiles the sources
    setup: list[dict] = []
    batches: list[dict] = []
    start = time.monotonic()
    while True:
        # set-ups are spread over the run: machine speed drifts over seconds
        for _ in range(min(SETUP_PER_BATCH, SETUP_RUNS - len(setup))):
            setup.append(worker("setup", spec))
        batches.append(worker("batch", spec))
        elapsed = time.monotonic() - start
        typical = statistics.median(b["batch_s"] for b in batches)
        if len(batches) >= MIN_BATCHES and elapsed + typical > seconds:
            break
    attempted, failed, reasons = failures_of(batches)
    # batch_s and cpu_s are totals over the run divided by the batches
    # completed: the inverse of the closed loop's throughput
    metrics = {
        "setup_s": statistics.median(s["paced_setup_s"] for s in setup),
        "batch_s": statistics.fmean(b["paced_batch_s"] for b in batches),
        "cpu_s": statistics.fmean(b["paced_cpu_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        "success_rate": (attempted - failed) / attempted,
    }
    notes = [f"{len(setup)} set-ups, {len(batches)} batches ("
             + ", ".join(f"{b['batch_s']:.3f}" for b in batches) + " s), "
             f"error_rate {failed / attempted:g} ({failed} of {attempted} "
             "commands)",
             "unpaced: setup_s {:.4f} s, batch_s {:.4f} s, cpu_s {:.4f} s; "
             "host at {:.3f} of the nominal pace over {} ticks".format(
                 statistics.median(s["setup_s"] for s in setup),
                 statistics.fmean(b["batch_s"] for b in batches),
                 statistics.fmean(b["cpu_s"] for b in batches),
                 statistics.fmean(b["scale"] for b in batches),
                 sum(b["ticks"] for b in batches))]
    return {"metrics": metrics, "units": dict(END_TO_END),
            "attempted": attempted, "failed": failed,
            "problems": reasons, "notes": notes}


def trace(spec: str) -> dict:
    """Per-layer metrics: one untraced batch, then one traced batch per
    hash seed; the counts of the traced batches must agree."""
    plain = worker("batch", spec)
    traced = [worker("batch", spec, traced=True, hash_seed=h)
              for h in TRACE_HASH_SEEDS]
    attempted, failed, reasons = failures_of([plain] + traced)
    reasons += self_check([t["layers"] for t in traced])
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(
                t["paced_batch_s"] for t in traced) - plain["paced_batch_s"]
        elif unit == "s":
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = layers[0][name]
    notes = [f"untraced batch {plain['batch_s']:.3f} s, traced batches "
             + ", ".join(f"{t['batch_s']:.3f} s" for t in traced)
             + f" (PYTHONHASHSEED {', '.join(TRACE_HASH_SEEDS)}); "
             f"error_rate {failed / attempted:g} ({failed} of {attempted} "
             "commands)"]
    return {"metrics": metrics, "units": dict(LAYER_METRICS),
            "attempted": attempted, "failed": failed, "problems": reasons,
            "notes": notes}


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    work = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    try:
        batch = make_batch(workload, os.path.join(ROOT, "corpus"),
                           os.path.join(work, "inputs"), seed)
        spec = os.path.join(work, "batch.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(batch, fh)
        return trace(spec) if traced else measure(spec, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run uses it


def report(workload: str, res: dict, prefix: str = "") -> dict:
    for note in res["notes"]:
        print(f"{workload}: {note}")
    for why in res["problems"]:
        print(f"{workload}: FAILED {why}")
    out = {}
    for name, value in res["metrics"].items():
        unit = res["units"][name]
        print(f"{workload:8s} {name:32s} {value:12.6g} {unit}")
        out[prefix + name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/almc/cli.py", "corpus/travel.alm")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: not an almc checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        # every workload, untraced and traced; metric names are prefixed
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    metrics: dict = {}
    attempted = failed = 0
    problems = 0
    try:
        for w, traced in runs:
            res = run_workload(w, args.seed, args.seconds, traced)
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update(report(w, res, prefix))
            attempted += res["attempted"]
            failed += res["failed"]
            problems += len(res["problems"])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    correct = problems == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
