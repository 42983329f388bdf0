"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q perfbench

Checks the result line against BENCHMARK.json (every metric name and
unit), that two runs of one seed repeat their exact work counts, and that
each workload's gate counts a deliberately wrong answer as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from voronoi_cvp import linalg, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, record


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(workload, trace):
    result, _ = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


@pytest.mark.parametrize("workload", NAMES)
def test_exact_work_counts_repeat(workload):
    _, first = _run(workload, 1, seed=5)
    _, second = _run(workload, 1, seed=5)
    for key in ("input_hash", "work_per_pass", "work_traced"):
        assert first[key] == second[key]
    assert first["work_repeats"] and second["work_repeats"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    made = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(7, True, tmp_path_factory.mktemp(name))
        wl.setup()
        made[name] = wl
    return made


def _wrong_start(wl, ops):
    """An op whose rounded start point is not a closest vector."""
    for i, op in enumerate(ops):
        li, t = op[0], op[1]
        x = solver.round_to_start(wl.gate_pre(li), t)
        dist = linalg.norm_sq(linalg.sub(t.coords, x.ambient))
        if dist != wl.reference(li, t).dist_sq:
            return i, x
    pytest.skip("every tiny target rounds to its closest vector")


def test_gate_fails_rounded_start_rsl(tiny):
    wl = tiny["rsl-query"]
    i, x = _wrong_start(wl, wl.ops)
    right = wl.run(i)
    assert wl.gate([None] * i + [right])[i]
    assert not wl.gate([None] * i + [replace(right, point=x)])[i]


def test_gate_fails_rounded_start_walk(tiny):
    wl = tiny["walk-deterministic"]
    i, x = _wrong_start(wl, wl.ops)
    right = wl.run(i)
    assert wl.check(i, right)
    assert not wl.check(i, replace(right, point=x))


def test_gate_fails_rounded_start_cli(tiny):
    wl = tiny["cli-solve"]
    i, x = _wrong_start(wl, wl.ops)
    code, text = wl.run(i)
    assert wl.check(i, (code, text))
    out = json.loads(text)
    wrong = dict(out, y_coeffs=list(x.coeffs))
    assert not wl.check(i, (code, json.dumps(wrong)))
    wrong["dist_sq"] = str(linalg.norm_sq(linalg.sub(wl.ops[i][1].coords, x.ambient)))
    assert not wl.check(i, (code, json.dumps(wrong)))
    assert not wl.check(i, (4, text))


def test_gate_fails_crossings_over_bound(tiny):
    wl = tiny["crossings-far"]
    results = [wl.run(i) for i in range(len(wl.ops))]
    assert all(wl.gate(results))
    group = [op[1] == wl.ops[0][1] for op in wl.ops]
    results = [replace(r, phase_b=10**3) if g else r for r, g in zip(results, group)]
    assert wl.gate(results) == [not g for g in group]
