import csv
import io
import json
from fractions import Fraction

import pytest

from voronoi_cvp import LatticePoint, experiments
from voronoi_cvp.cli import main
from voronoi_cvp.lattice import read_basis
from voronoi_cvp.voronoi import _checksum, load_cell


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_z2(tmp_path, capsys=None):
    path = tmp_path / "z2.json"
    code = main(["gen", "--kind", "integer-identity", "-n", "2", "--out", str(path)])
    assert code == 0
    if capsys is not None:
        capsys.readouterr()  # drop the gen manifest
    return path


def strip_wall_clock(csv_text):
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    for r in rows:
        r.pop("wall_clock", None)
    return rows


def test_gen_identity_and_roundtrip(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    obj = json.loads(path.read_text())
    assert obj == {"n": 2, "basis": [["1", "0"], ["0", "1"]]}


def test_gen_random_is_seed_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--kind", "random-rational", "-n", "3", "--seed", "5", "--out", str(a)]) == 0
    capsys.readouterr()
    assert main(["gen", "--kind", "random-rational", "-n", "3", "--seed", "5", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_gen_from_file_and_input_errors(tmp_path, capsys):
    src = tmp_path / "src.json"
    src.write_text(json.dumps({"n": 2, "basis": [["1", "0"], ["0", "2/3"]]}))
    out = tmp_path / "copy.json"
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "from-file", "--source", str(src), "--out", str(out)
    )
    assert code == 0
    singular = tmp_path / "sing.json"
    singular.write_text(json.dumps({"n": 2, "basis": [["1", "2"], ["2", "4"]]}))
    code, _, err = run_cli(capsys, "gen", "--kind", "from-file", "--source", str(singular))
    assert code == 2 and "dependen" in err


def test_gen_dim_cap_exit_code(capsys):
    code, _, _ = run_cli(capsys, "gen", "--kind", "integer-identity", "-n", "20")
    assert code == 3
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "integer-identity", "-n", "20", "--dim-cap", "20"
    )
    assert code == 0


def test_missing_file_is_input_error(capsys):
    code, _, _ = run_cli(capsys, "preprocess", "/nonexistent/basis.json")
    assert code == 2


def test_preprocess_writes_cache_and_stats(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "preprocess", str(path))
    assert code == 0
    stats = json.loads(out)
    assert stats["vr_count"] == 4
    assert stats["bound_ok"] is True
    assert stats["lambda1_sq"] == "1"
    assert (tmp_path / "z2.json.vr.json").exists()
    cache = json.loads((tmp_path / "z2.json.vr.json").read_text())
    assert set(cache) == {"basis_hash", "n", "vr", "checksum"}
    assert len(cache["vr"]) == 4


def test_preprocess_z3_facet_count(tmp_path, capsys):
    path = tmp_path / "z3.json"
    assert main(["gen", "--kind", "integer-identity", "-n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "preprocess", str(path))
    assert code == 0
    stats = json.loads(out)
    assert stats["vr_count"] == 6
    assert stats["facet_bound"] == 14
    assert stats["mu_upper_sq"] == "3/4"


@pytest.mark.parametrize("strategy", ["rsl", "slicer", "mv", "deterministic-line"])
def test_solve_strategies_certified(tmp_path, capsys, strategy):
    path = write_z2(tmp_path, capsys)
    code, out, _ = run_cli(
        capsys,
        "solve",
        str(path),
        "--target",
        "3/10,7/10",
        "--strategy",
        strategy,
        "--check",
    )
    assert code == 0
    res = json.loads(out)
    assert res["y_coeffs"] == [0, 1]
    assert res["certified"] is True
    assert res["dist_sq"] == "9/50"
    assert res["oracle-match"] is True


def test_solve_trace_and_target_file(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps({"t": ["5/2", "1/3"]}))
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys,
        "solve",
        str(path),
        "--target-file",
        str(tfile),
        "--trace-out",
        str(trace),
        "--seed",
        "3",
    )
    assert code == 0
    res = json.loads(out)
    assert res["certified"] is True
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert len(lines) == res["phase_b"] + res["phase_c"]
    for obj in lines:
        Fraction(obj["alpha"])
        assert obj["phase"] in ("B", "C")


def test_crossings_empty_is_header_only(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    code, out, _ = run_cli(
        capsys, "crossings", str(path), "--trials", "0", "--target", "3/2,1/3"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1  # header only
    assert "phase_b" in rows[0]


def test_crossings_rows_and_reproducibility(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    args = [
        "crossings",
        str(path),
        "--trials",
        "5",
        "--target",
        "3/2,1/3",
        "--start-coeffs",
        "0,0",
        "--alpha",
        "1/32",
        "--seed",
        "11",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0
    assert strip_wall_clock(out1) == strip_wall_clock(out2)
    rows = strip_wall_clock(out1)
    assert len(rows) == 6  # 5 trials + summary
    assert rows[-1]["row_type"] == "summary"
    assert rows[-1]["verdict_b"] == "True"
    assert rows[-1]["verdict_c"] == "True"
    assert all(r["manifest_hash"] == rows[0]["manifest_hash"] for r in rows)
    # bound fields come from the exact run quantities: ||t -x||_V = 3 here
    assert rows[0]["bound_b"] == "3"


def test_crossings_verdict_recomputable_from_rows(tmp_path, capsys):
    import math

    path = write_z2(tmp_path, capsys)
    code, out, _ = run_cli(
        capsys,
        "crossings",
        str(path),
        "--trials",
        "20",
        "--target",
        "9/4,1/3",
        "--start-coeffs",
        "0,0",
        "--seed",
        "13",
    )
    assert code == 0
    rows = strip_wall_clock(out)
    trials = [r for r in rows if r["row_type"] == "trial"]
    summary = rows[-1]
    bs = [int(r["phase_b"]) for r in trials]
    mean = sum(bs) / len(bs)
    var = sum((b - mean) ** 2 for b in bs) / (len(bs) - 1)
    se = math.sqrt(var / len(bs))
    assert math.isclose(mean, float(summary["mean_b"]))
    assert math.isclose(se, float(summary["se_b"]))
    recomputed = mean <= float(Fraction(summary["bound_b"])) + 3 * se
    assert str(recomputed) == summary["verdict_b"]


def test_crossings_manifest_sidecar_and_json_format(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys,
        "crossings",
        str(path),
        "--trials",
        "3",
        "--target",
        "5/4,1/5",
        "--out",
        str(out_csv),
        "--seed",
        "2",
    )
    assert code == 0
    sidecar = tmp_path / "rows.csv.manifest.json"
    manifest = json.loads(sidecar.read_text())
    rows = strip_wall_clock(out_csv.read_text())
    assert rows[0]["manifest_hash"] == manifest["manifest_hash"]
    code, out, _ = run_cli(
        capsys,
        "crossings",
        str(path),
        "--trials",
        "3",
        "--target",
        "5/4,1/5",
        "--seed",
        "2",
        "--format",
        "json",
    )
    obj = json.loads(out)
    assert obj["manifest"]["manifest_hash"] == manifest["manifest_hash"]
    assert len(obj["records"]) == 4


TRIAL_KEYS = [
    "row_type", "trial", "lattice_hash", "n", "target", "start", "strategy", "alpha",
    "phase_b", "phase_c", "bound_b", "bound_c", "resamples", "seed", "wall_clock",
    "manifest_hash",
]
SUMMARY_KEYS = [
    "row_type", "trial", "lattice_hash", "n", "target", "start", "strategy", "alpha",
    "bound_b", "bound_c", "seed", "wall_clock", "mean_b", "se_b", "verdict_b", "mean_c",
    "se_c", "verdict_c", "manifest_hash",
]


def test_crossings_row_layout(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    args = ["crossings", str(path), "--trials", "2", "--target", "7/4,1/3", "--seed", "3"]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    records = json.loads(out)["records"]
    assert [list(r) for r in records] == [TRIAL_KEYS, TRIAL_KEYS, SUMMARY_KEYS]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.splitlines()[0] == (
        "row_type,trial,lattice_hash,n,target,start,strategy,alpha,phase_b,phase_c,"
        "bound_b,bound_c,resamples,seed,wall_clock,mean_b,se_b,verdict_b,mean_c,se_c,"
        "verdict_c,manifest_hash"
    )


def test_crossings_jobs_match_sequential(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    base = [
        "crossings",
        str(path),
        "--trials",
        "4",
        "--target",
        "7/4,2/3",
        "--seed",
        "6",
    ]
    _, seq, _ = run_cli(capsys, *base)
    _, par, _ = run_cli(capsys, *base, "--jobs", "2")
    assert strip_wall_clock(seq) == strip_wall_clock(par)


def test_crossings_start_at_most_one_worker_per_trial(tmp_path, capsys, monkeypatch):
    # a stand-in pool that records its size and runs the trials in this process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    path = write_z2(tmp_path, capsys)
    base = ["crossings", str(path), "--trials", "2", "--target", "7/4,2/3"]
    _, seq, _ = run_cli(capsys, *base)
    code, par, _ = run_cli(capsys, *base, "--jobs", "64")
    assert code == 0 and sizes == [2]
    assert strip_wall_clock(seq) == strip_wall_clock(par)


def test_graphdist_box(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    code, out, _ = run_cli(
        capsys, "graphdist", str(path), "--pairs", "box:1", "--cap", "6"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 8
    by_y = {r["y"]: int(r["d_graph"]) for r in rows}
    assert by_y["1,0"] == 1 and by_y["0,-1"] == 1
    assert by_y["1,1"] == 2 and by_y["-1,1"] == 2
    assert all(r["lower_ok"] == "True" and r["upper_ok"] == "True" for r in rows)


def test_graphdist_cap_marks_rows(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[[0, 0], [5, 5]]]))
    code, out, _ = run_cli(
        capsys, "graphdist", str(path), "--pairs", f"file:{pairs}", "--cap", "3"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["capped"] == "True"
    assert rows[0]["d_graph"] == ""


def test_env_var_seed_and_flag_precedence(tmp_path, capsys, monkeypatch):
    path = write_z2(tmp_path, capsys)
    monkeypatch.setenv("VORONOI_CVP_SEED", "41")
    code, out_env, _ = run_cli(
        capsys, "crossings", str(path), "--trials", "2", "--target", "3/2,1/3"
    )
    assert code == 0
    assert strip_wall_clock(out_env)[0]["seed"] == "41"
    code, out_flag, _ = run_cli(
        capsys,
        "crossings",
        str(path),
        "--trials",
        "2",
        "--target",
        "3/2,1/3",
        "--seed",
        "42",
    )
    assert strip_wall_clock(out_flag)[0]["seed"] == "42"


def test_env_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    # the parser is built once; each call must still read the environment it runs in
    path = write_z2(tmp_path, capsys)
    argv = ("crossings", str(path), "--trials", "1", "--target", "3/2,1/3")
    monkeypatch.setenv("VORONOI_CVP_FORMAT", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["records"][0]["row_type"] == "trial"
    monkeypatch.setenv("VORONOI_CVP_FORMAT", "csv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("row_type,trial,")


def test_solve_uses_cache_when_present(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    run_cli(capsys, "preprocess", str(path))
    code, out, _ = run_cli(capsys, "solve", str(path), "--target", "1/2,1/2")
    assert code == 0
    res = json.loads(out)
    assert res["certified"] is True
    assert res["y_coeffs"] in ([0, 0], [1, 0], [0, 1], [1, 1])


def test_solve_warns_on_stale_cache(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    run_cli(capsys, "preprocess", str(path))
    path.write_text(json.dumps({"n": 2, "basis": [["2", "1"], ["0", "1"]]}))
    code, out, err = run_cli(capsys, "solve", str(path), "--target", "1/2,1/3", "--check")
    assert code == 0
    res = json.loads(out)
    assert res["certified"] is True and res["oracle-match"] is True
    assert f"warning: ignoring relevant-vector cache {path}.vr.json:" in err


def test_rejected_cache_is_rewritten(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    run_cli(capsys, "preprocess", str(path))
    path.write_text(json.dumps({"n": 2, "basis": [["2", "1"], ["0", "1"]]}))
    warned = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "solve", str(path), "--target", "1/2,1/3", "--check")
        assert code == 0
        assert json.loads(out)["oracle-match"] is True
        warned.append("warning: ignoring relevant-vector cache" in err)
    assert warned == [True, False]


def test_cache_row_of_wrong_length_is_ignored(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    run_cli(capsys, "preprocess", str(path))
    cache = tmp_path / "z2.json.vr.json"
    obj = json.loads(cache.read_text())
    obj["vr"] = [["1", "0", "0"], ["-1", "0", "0"]]
    cache.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "solve", str(path), "--target", "1/2,1/3", "--check")
    assert code == 0
    assert json.loads(out)["oracle-match"] is True
    assert "wrong length" in err


def test_cache_with_a_float_entry_is_rewritten(tmp_path, capsys):
    # a float coefficient under a valid checksum is not what `preprocess` writes
    path = write_z2(tmp_path, capsys)
    run_cli(capsys, "preprocess", str(path))
    cache = tmp_path / "z2.json.vr.json"
    obj = json.loads(cache.read_text())
    obj["vr"][0][0] = float(obj["vr"][0][0])
    obj["checksum"] = _checksum(obj)
    cache.write_text(json.dumps(obj))
    for warned in (True, False):
        code, out, err = run_cli(capsys, "solve", str(path), "--target", "1/2,1/3", "--check")
        assert code == 0 and json.loads(out)["oracle-match"] is True
        assert ("expected an integer entry" in err) is warned
    assert json.loads(cache.read_text())["vr"][0][0] == str(int(obj["vr"][0][0]))


def test_truncated_cache_is_rejected(tmp_path, capsys):
    # dropping the relevant pair +-(1,-1) leaves a list closed under
    # negation whose cell is larger than the Voronoi cell
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"n": 2, "basis": [["1", "1/2"], ["0", "1"]]}))
    run_cli(capsys, "preprocess", str(path))
    cache = tmp_path / "b.json.vr.json"
    obj = json.loads(cache.read_text())
    obj["vr"] = [r for r in obj["vr"] if r not in (["1", "-1"], ["-1", "1"])]
    cache.write_text(json.dumps(obj))
    argv = ("graphdist", str(path), "--pairs", "box:1", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "checksum" in err
    (row,) = [r for r in json.loads(out)["records"] if r["y"] == "-1,1"]
    assert (row["d_graph"], row["cell_norm"]) == (1, "2")
    assert "warning" not in run_cli(capsys, *argv)[2]


def test_cache_without_checksum_is_rewritten_once(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    run_cli(capsys, "preprocess", str(path))
    cache = tmp_path / "z2.json.vr.json"
    obj = json.loads(cache.read_text())
    del obj["checksum"]  # a cache written before the checksum existed
    cache.write_text(json.dumps(obj))
    warned = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "solve", str(path), "--target", "1/2,1/3")
        assert code == 0
        warned.append("checksum is missing or wrong" in err)
    assert warned == [True, False]
    assert "checksum" in json.loads(cache.read_text())


def test_failed_cache_rewrite_only_warns(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    (tmp_path / "z2.json.vr.json").mkdir()  # neither readable nor writable as a file
    code, out, err = run_cli(capsys, "solve", str(path), "--target", "1/2,1/3", "--check")
    assert code == 0
    assert json.loads(out)["oracle-match"] is True
    assert "warning: ignoring relevant-vector cache" in err
    assert "warning: cannot rewrite relevant-vector cache" in err


MALFORMED = {
    "start-coeffs": ["crossings", "--trials", "2", "--target", "1/2,1/3", "--start-coeffs", "a,b"],
    "alpha": ["crossings", "--trials", "2", "--target", "1/2,1/3", "--alpha", "x"],
    "alpha-range": ["crossings", "--trials", "2", "--target", "1/2,1/3", "--alpha", "2"],
    "trials": ["crossings", "--trials", "-1", "--target", "1/2,1/3"],
    "jobs": ["crossings", "--trials", "2", "--target", "1/2,1/3", "--jobs", "0"],
    "pairs-box": ["graphdist", "--pairs", "box:z"],
    "pairs-kind": ["graphdist", "--pairs", "grid:2"],
    "cap": ["graphdist", "--pairs", "box:1", "--cap", "x"],
    "precision-bits": ["solve", "--target", "1/2,1/3", "--precision-bits", "8"],
    "target": ["solve", "--target", "1/2,x"],
    "target-zero-den": ["solve", "--target", "1/0,1"],
    "target-missing": ["solve", "--target"],
    "seed": ["solve", "--target", "1/2,1/3", "--seed", "x"],
    "seed-negative": ["solve", "--target", "1/2,1/3", "--seed", "-1"],
    "dim-cap": ["solve", "--target", "1/2,1/3", "--dim-cap", "0"],
    "strategy": ["solve", "--target", "1/2,1/3", "--strategy", "bogus"],
    "slicer-trace-out": ["solve", "--target", "1/2,1/3", "--strategy", "slicer",
                         "--trace-out", "slicer.jsonl"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_flag_is_input_error(tmp_path, capsys, case):
    path = write_z2(tmp_path, capsys)
    command, *flags = MALFORMED[case]
    code, out, err = run_cli(capsys, command, str(path), *flags)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


GEN_MALFORMED = {
    "dimension": ["--kind", "integer-identity", "-n", "0"],
    "dimension-text": ["--kind", "integer-identity", "-n", "x"],
    "max-numerator": ["--kind", "random-rational", "-n", "2", "--max-numerator", "-1"],
    "max-denominator": ["--kind", "random-rational", "-n", "2", "--max-denominator", "0"],
    "defect-cap": ["--kind", "random-rational", "-n", "2", "--defect-cap", "0"],
    "seed-negative": ["--kind", "random-rational", "-n", "2", "--seed", "-2"],
}


@pytest.mark.parametrize("case", sorted(GEN_MALFORMED))
def test_malformed_gen_flag_is_input_error(capsys, case):
    code, out, err = run_cli(capsys, "gen", *GEN_MALFORMED[case])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_malformed_basis_and_target_objects_are_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # entries are strings or integers: null, floats and booleans are refused
    for entry in (None, 0.1, True):
        bad.write_text(json.dumps({"n": 2, "basis": [[1, 0], [0, entry]]}))
        code, out, err = run_cli(capsys, "solve", str(bad), "--target", "1/2,1/3")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""
    path = write_z2(tmp_path, capsys)
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps({"t": "12"}))
    code, out, err = run_cli(capsys, "solve", str(path), "--target-file", str(tfile))
    assert code == 2
    assert err.startswith("error: ") and "JSON list" in err
    assert out == ""


@pytest.mark.parametrize(
    "name,value", [("PRECISION_BITS", "8"), ("FORMAT", "xml"), ("SEED", "-5")]
)
def test_malformed_env_value_is_input_error(tmp_path, capsys, monkeypatch, name, value):
    path = write_z2(tmp_path, capsys)
    monkeypatch.setenv("VORONOI_CVP_" + name, value)
    code, _, err = run_cli(capsys, "crossings", str(path), "--trials", "1", "--target", "1/2,1/3")
    assert code == 2 and name.lower().replace("_", "-") in err


def test_malformed_pairs_file_is_input_error(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    pairs = tmp_path / "pairs.json"
    # a row is two JSON lists of n integers: strings, floats and booleans
    # are not coefficients, even where int() would accept them
    for rows in ([[1, 2]], [["00", "11"]], [[[0, 0], [1.5, True]]], [[[0, 0], [1]]], {"a": 1}):
        pairs.write_text(json.dumps(rows))
        code, _, err = run_cli(capsys, "graphdist", str(path), "--pairs", f"file:{pairs}")
        assert code == 2 and "pairs file" in err


def test_negative_rational_flag_values(tmp_path, capsys):
    path = write_z2(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "solve", str(path), "--target", "-1/2,1/3", "--check")
    assert code == 0
    res = json.loads(out)
    assert res["certified"] is True and res["oracle-match"] is True
    code, out, _ = run_cli(
        capsys, "crossings", str(path), "--trials", "2", "--target", "-3/2,1/3",
        "--start-coeffs", "-1,0",
    )
    assert code == 0
    rows = strip_wall_clock(out)
    assert rows[0]["target"] == "-3/2,1/3" and rows[0]["start"] == "-1,0"


def test_warm_solve_builds_only_the_points_it_reads(tmp_path, capsys, monkeypatch):
    # a cached n = 6 cell holds 126 relevant vectors; a solve builds the frame's 6 points
    # and one per edge it takes, each from its stored row
    path = tmp_path / "b6.json"
    assert main(["gen", "--kind", "random-rational", "-n", "6", "--seed", "3", "--out", str(path)]) == 0
    assert main(["preprocess", str(path)]) == 0
    capsys.readouterr()
    rows = {v.coeffs for v in load_cell(str(path) + ".vr.json", read_basis(path)).vectors}
    assert len(rows) == 126
    built = []
    init = LatticePoint.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.coeffs in rows:
            built.append(self.coeffs)

    monkeypatch.setattr(LatticePoint, "__init__", spy)
    for strategy in experiments.STRATEGIES:
        built.clear()
        code, out, _ = run_cli(capsys, "solve", str(path), "--target", "7,-6,5,-4,3,-2",
                               "--strategy", strategy)
        assert code == 0
        res = json.loads(out)
        assert tuple(res["y_coeffs"]) not in rows and res["edges"] > 0
        assert len(built) <= 6 + res["edges"]
