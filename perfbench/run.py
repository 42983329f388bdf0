"""Benchmark of the voronoi-cvp package: one workload per run.

    python3 perfbench/run.py --workload rsl-query --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The run builds the workload's inputs from the seed, times the setup
(several times; the median is reported), then times whole passes over the
workload's ops until `--seconds` have elapsed.  Every op's answer is
checked after its pass, outside the timed region.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
run alternates untraced and traced passes and reports the per-layer ones.
A record of the run (metrics, exact work counts, input hash) is written to
`perfbench/out/`, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import voronoi_cvp  # noqa: E402
from layers import PER_LAYER, layer_metrics, prediction  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import OP_ERRORS, WORKLOADS, pass_work  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_ops_per_s": "ops/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def run_pass(wl, tracer=None):
    """Time every op of one pass; returns (latencies, results, wall seconds)."""
    lat, results = [], []
    start = perf_counter()
    for i in range(len(wl.ops)):
        frame = None
        if tracer is not None:
            tracer.op_id = i
            frame = tracer.begin("bench.op")
        t0 = perf_counter()
        try:
            res = wl.run(i)
        except OP_ERRORS:
            res = None
        lat.append(perf_counter() - t0)
        if frame is not None:
            tracer.end(frame)
        results.append(res)
    return lat, results, perf_counter() - start


class Ledger:
    """Gate verdicts and exact work counts over the passes of one run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = self.wrong = 0
        self.work = None
        self.repeats = True

    def add(self, results) -> None:
        ok = self.wl.gate(results)
        self.attempted += len(results)
        self.failed += ok.count(False)
        self.wrong += sum(1 for r, good in zip(results, ok) if r is not None and not good)
        work = pass_work(self.wl, results)
        if self.work is None:
            self.work = work
        self.repeats &= work == self.work

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.repeats


def timed_setups(wl, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return times


def percentile_95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(setups: list, lat: list, walls: list, ledger: Ledger) -> tuple[dict, dict]:
    """The end-to-end metrics of untraced setups and passes, and their sample counts."""
    p95 = percentile_95(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p95_ms": 1e3 * p95,
        "throughput_ops_per_s": len(lat) / sum(walls),
        "ok_frac": 1 - ledger.failed / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "setup_times_s": setups,
        "pass_walls_s": walls,
        "samples": len(lat),
        "samples_beyond_p95": sum(1 for x in lat if x > p95),
    }
    return metrics, extra


def plain_run(wl, seconds: float) -> tuple[dict, Ledger, dict]:
    setups = timed_setups(wl, SETUP_REPEATS)
    ledger = Ledger(wl)
    lat, walls = [], []
    while not walls or sum(walls) < seconds:
        pass_lat, results, pass_wall = run_pass(wl)
        lat += pass_lat
        walls.append(pass_wall)
        ledger.add(results)
    metrics, extra = end_to_end(setups, lat, walls, ledger)
    return metrics, ledger, extra


def traced_run(wl, seconds: float) -> tuple[dict, Ledger, dict]:
    """Untraced and traced setup and passes; per-layer metrics from the traced ones."""
    setups = timed_setups(wl, 1)
    tracer = Tracer(voronoi_cvp)
    tracer.install()
    frame = tracer.begin("bench.setup")
    wl.setup()
    tracer.end(frame)
    tracer.uninstall()
    tracer.phase = "op"

    ledger = Ledger(wl)
    lat, walls = [], []
    traced_wall = 0.0
    traced_passes = 0
    while traced_passes == 0 or sum(walls) + traced_wall < seconds:
        pass_lat, results, w = run_pass(wl)
        lat += pass_lat
        walls.append(w)
        ledger.add(results)
        tracer.install()
        try:
            _, results, w = run_pass(wl, tracer)
        finally:
            tracer.uninstall()
        traced_wall += w
        traced_passes += 1
        ledger.add(results)
    # exact counts per pass that only the traced passes see
    work = dict(
        ledger.work,
        membership_tests=tracer.calls[("op", "voronoi.membership")] // traced_passes,
        sampler_tests=tracer.events[("op", "sampler_tests")] // traced_passes,
        setup_cvp_calls=tracer.calls[("setup", "oracles.cvp_bruteforce")],
        vr_count=wl.vr_count(),
    )
    metrics = layer_metrics(
        tracer,
        ops=traced_passes * len(wl.ops),
        passes=traced_passes,
        work=ledger.work,
        wl=wl,
        overhead=traced_wall / sum(walls) - 1,
    )
    spans = OUT / f"{wl.name}-seed{wl.seed}.spans.jsonl"
    tracer.write_spans(spans)
    e2e, extra = end_to_end(setups, lat, walls, ledger)
    extra.update(
        end_to_end=e2e,
        traced_passes=traced_passes,
        work_traced=work,
        prediction=prediction(tracer, wl.name),
        spans_file=str(spans.relative_to(ROOT)),
        spans=len(tracer.spans),
    )
    return metrics, ledger, extra


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if Path(voronoi_cvp.__file__).resolve().parent.parent != SRC:
        ap.error(f"voronoi_cvp imported from {voronoi_cvp.__file__}, not {SRC}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)

    title = f"{wl.name} seed {args.seed}"
    if args.trace:
        metrics, ledger, extra = traced_run(wl, args.seconds)
        units = {k: v[0] for k, v in PER_LAYER.items()}
        print_table(f"{title}, end-to-end (untraced passes)", extra["end_to_end"], END_TO_END)
        print_table(f"{title}, per-layer (traced passes)", metrics, units)
    else:
        metrics, ledger, extra = plain_run(wl, args.seconds)
        units = END_TO_END
        print_table(f"{title}, end-to-end", metrics, units)
    extra.update(
        ops_per_pass=len(wl.ops),
        workload=wl.name,
        seed=args.seed,
        tiny=args.tiny,
        input_hash=wl.input_hash(),
        work_per_pass=ledger.work,
        work_repeats=ledger.repeats,
        wrong=ledger.wrong,
        machine={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    )
    print(json.dumps({k: v for k, v in extra.items() if k != "machine"}, default=str))
    record = dict(extra, metrics=metrics)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
