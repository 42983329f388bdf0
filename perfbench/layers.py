"""Per-layer metrics computed from a traced run, and the layer predictions.

Units: `_ms` metrics are mean milliseconds per call unless the description
says per op; `_s` metrics are seconds per setup; counts are per op, per
setup or per pass as described.  A layer that a workload never enters
reports 0.
"""

from __future__ import annotations

from tracing import LAYERS, MEMBERSHIP, SAMPLER, WALK, Tracer

# name -> (unit, better, what it is)
PER_LAYER = {
    "sampling.uniform_sample_ms": ("ms", "lower", "per sampler call, with its membership tests"),
    "sampling.calls_per_op": ("count", "lower", "sampler calls per op"),
    "sampling.membership_tests_per_sample": ("count", "lower", "proposals tested per sample"),
    "sampling.accept_ratio": ("ratio", "higher", "samples / proposals tested"),
    "navigation.randomized_straight_line_ms": ("ms", "lower", "per walk call"),
    "navigation.line_follow_calls": ("count", "lower", "line_follow calls per op"),
    "navigation.ms_per_crossing": ("ms", "lower", "navigation self time / (B + C crossings)"),
    "navigation.crossings_b_per_op": ("count", "lower", "phase-B crossings per op"),
    "navigation.crossings_c_per_op": ("count", "lower", "phase-C crossings per op"),
    "navigation.ties_resampled": ("count", "lower", "walks that raised TieDetected, per pass"),
    "navigation.truncated": ("count", "lower", "walks that hit the edge budget, per pass"),
    "navigation.iterative_slicer_ms": ("ms", "lower", "per slicer call"),
    "navigation.mv_walk_ms": ("ms", "lower", "per mv_walk call"),
    "navigation.line_follow_ms": ("ms", "lower", "per line_follow call"),
    "voronoi.membership_calls": ("count", "lower", "exact membership tests per op"),
    "voronoi.membership_ms": ("ms", "lower", "membership time per op"),
    "voronoi.compute_relevant_vectors_s": ("s", "lower", "per setup"),
    "voronoi.vr_count": ("count", "lower", "relevant vectors over the workload's lattices"),
    "voronoi.load_cell_ms": ("ms", "lower", "per cache load"),
    "voronoi.save_cell_ms": ("ms", "lower", "per cache write"),
    "oracles.cvp_bruteforce_setup_calls": ("count", "lower", "coset searches per setup"),
    "oracles.cvp_bruteforce_setup_s": ("s", "lower", "coset search time per setup"),
    "oracles.reference_cvp_ms": ("ms", "lower", "brute-force reference per target, untraced"),
    "linalg.ldl_s": ("s", "lower", "per setup"),
    "linalg.ldl_calls": ("count", "lower", "per setup"),
    "linalg.solve_s": ("s", "lower", "per setup, including solves inside inverse"),
    "linalg.solve_calls": ("count", "lower", "per setup"),
    "linalg.inverse_s": ("s", "lower", "per call, setup and ops"),
    "solver.round_to_start_ms": ("ms", "lower", "per call"),
    "solver.certify_ms": ("ms", "lower", "per call"),
    "solver.query_self_ms": ("ms", "lower", "query's own time per call"),
    "solver.restarts_per_query": ("count", "lower", "restarts per query"),
    "solver.preprocess_frame_ms": ("ms", "lower", "per preprocess call, setup and ops"),
    "lattice.read_basis_ms": ("ms", "lower", "per basis file read"),
    "cli.solve_self_ms": ("ms", "lower", "cli's own time per solve op"),
    "cli.preprocess_self_ms": ("ms", "lower", "cli's own time per preprocess command"),
    "experiments.trial_self_ms": ("ms", "lower", "run_crossing_trials' own time per trial"),
    "experiments.resamples_per_trial": ("count", "lower", "tie resamples per trial"),
    "trace.overhead_frac": ("ratio", "lower", "traced / untraced op-phase wall time - 1"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.op_share"] = ("ratio", "lower", "layer self time / op time")
    PER_LAYER[f"{_layer}.setup_share"] = ("ratio", "lower", "layer self time / setup time")


def _div(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, ops: int, passes: int, work: dict, wl, overhead: float) -> dict:
    """Every PER_LAYER metric, from one traced setup and `passes` traced passes."""
    calls, incl, own, ev = tracer.calls, tracer.incl, tracer.self_time, tracer.events

    def ms_per_call(name, phases=("op",)):
        c = sum(calls[(p, name)] for p in phases)
        return 1e3 * _div(sum(incl[(p, name)] for p in phases), c)

    both = ("setup", "op")
    samples = calls[("op", SAMPLER)]
    tests = ev[("op", "sampler_tests")]
    nav_self = tracer.layer_self("op")["navigation"]
    crossings = passes * (work.get("crossings_b", 0) + work.get("crossings_c", 0))
    queries = calls[("op", "solver.query")]
    trials = calls[("op", "experiments.run_crossing_trials")]
    cli_setup = calls[("setup", "cli.main")]
    m = {
        "sampling.uniform_sample_ms": ms_per_call(SAMPLER),
        "sampling.calls_per_op": _div(samples, ops),
        "sampling.membership_tests_per_sample": _div(tests, samples),
        "sampling.accept_ratio": _div(samples, tests),
        "navigation.randomized_straight_line_ms": ms_per_call(WALK),
        "navigation.line_follow_calls": _div(calls[("op", "navigation.line_follow")], ops),
        "navigation.ms_per_crossing": 1e3 * _div(nav_self, crossings),
        "navigation.crossings_b_per_op": _div(work.get("crossings_b", 0), len(wl.ops)),
        "navigation.crossings_c_per_op": _div(work.get("crossings_c", 0), len(wl.ops)),
        "navigation.ties_resampled": _div(ev[("op", "ties")], passes),
        "navigation.truncated": _div(ev[("op", "truncated")], passes),
        "navigation.iterative_slicer_ms": ms_per_call("navigation.iterative_slicer"),
        "navigation.mv_walk_ms": ms_per_call("navigation.mv_walk"),
        "navigation.line_follow_ms": ms_per_call("navigation.line_follow"),
        "voronoi.membership_calls": _div(calls[("op", MEMBERSHIP)], ops),
        "voronoi.membership_ms": 1e3 * _div(incl[("op", MEMBERSHIP)], ops),
        "voronoi.compute_relevant_vectors_s": incl[("setup", "voronoi.compute_relevant_vectors")],
        "voronoi.vr_count": wl.vr_count(),
        "voronoi.load_cell_ms": ms_per_call("voronoi.load_cell", both),
        "voronoi.save_cell_ms": ms_per_call("voronoi.save_cell", both),
        "oracles.cvp_bruteforce_setup_calls": calls[("setup", "oracles.cvp_bruteforce")],
        "oracles.cvp_bruteforce_setup_s": incl[("setup", "oracles.cvp_bruteforce")],
        "oracles.reference_cvp_ms": 1e3 * _div(wl.ref_seconds, wl.ref_calls),
        "linalg.ldl_s": incl[("setup", "linalg.ldl")],
        "linalg.ldl_calls": calls[("setup", "linalg.ldl")],
        "linalg.solve_s": incl[("setup", "linalg.solve")],
        "linalg.solve_calls": calls[("setup", "linalg.solve")],
        "linalg.inverse_s": 1e-3 * ms_per_call("linalg.inverse", both),
        "solver.round_to_start_ms": ms_per_call("solver.round_to_start"),
        "solver.certify_ms": ms_per_call("solver.certify"),
        "solver.query_self_ms": 1e3 * _div(own[("op", "solver.query")], queries),
        "solver.restarts_per_query": _div(work.get("restarts", 0), len(wl.ops)) if queries else 0.0,
        "solver.preprocess_frame_ms": ms_per_call("solver.preprocess", both),
        "lattice.read_basis_ms": ms_per_call("lattice.read_basis", both),
        "cli.solve_self_ms": 1e3 * _div(own[("op", "cli.main")], ops),
        "cli.preprocess_self_ms": 1e3 * _div(own[("setup", "cli.main")], cli_setup),
        "experiments.trial_self_ms": 1e3 * _div(own[("op", "experiments.run_crossing_trials")], trials),
        "experiments.resamples_per_trial": _div(work.get("resamples", 0), len(wl.ops)) if trials else 0.0,
        "trace.overhead_frac": overhead,
    }
    for phase, total in (("op", incl[("op", "bench.op")]), ("setup", incl[("setup", "bench.setup")])):
        for layer, secs in tracer.layer_self(phase).items():
            m[f"{layer}.{phase}_share"] = _div(secs, total)
    return m


def prediction(tracer: Tracer, workload: str) -> dict:
    """The issue's predicted dominant layer for this workload, with its measured share.

    Inclusive shares count the time a layer's entry calls take, including
    the membership tests and linear algebra they trigger.
    """
    incl = tracer.incl
    op_total = incl[("op", "bench.op")]
    op_self = tracer.layer_self("op")
    if workload == "rsl-query":
        share = _div(incl[("op", SAMPLER)], op_total)
        return {"claim": "sampling takes >= 85% of op time", "share": share, "holds": share >= 0.85}
    if workload == "crossings-far":
        top = max(op_self, key=op_self.get)
        return {
            "claim": "navigation is the largest layer self share of op time",
            "largest": top,
            "share": _div(op_self[top], op_total),
            "holds": top == "navigation",
        }
    if workload == "walk-deterministic":
        setup_self = tracer.layer_self("setup")
        share = _div(setup_self["oracles"] + setup_self["linalg"], incl[("setup", "bench.setup")])
        return {"claim": "oracles + linalg take most of setup", "share": share, "holds": share > 0.5}
    share = _div(
        op_self["cli"] + incl[("op", "voronoi.load_cell")] + incl[("op", "solver.preprocess")],
        op_total,
    )
    return {
        "claim": "cli + voronoi.load_cell + solver.preprocess take most of op time",
        "share": share,
        "holds": share > 0.5,
    }
