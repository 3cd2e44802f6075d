"""Benchmark harness tests: seeding, rows, CSV/SVG output, CLI wiring."""

import json
import math
import os

import numpy as np
import pytest

from tpais.bench import (CSV_COLUMNS, DEFAULT_SAMPLE_COUNTS, METHODS,
                         ExperimentSpec, ResultRow, derive_seed, emit_csv,
                         run_experiments, run_single)
from tpais.cli import build_parser, main, spec_from_args
from tpais.metrics import LN2
from tpais.plots import emit_plots
from tpais.targets import make_gmm5_target

TINY = ExperimentSpec(methods=("tpais",), families=("normal",), dims=(1,),
                      sample_counts=(16,), trials=3, base_seed=5,
                      jsd_points=500)

_ZERO_CLOCK = lambda: 0.0


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, "run", "tpais") == derive_seed(0, "run", "tpais")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(1, 2) != derive_seed(12)
    assert 0 <= derive_seed("x") < 2 ** 64


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(methods=("nope",))
    with pytest.raises(ValueError):
        ExperimentSpec(families=("cauchy",))
    with pytest.raises(ValueError):
        ExperimentSpec(trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(sample_counts=(0,))
    for bandwidth in (0.0, -0.1, math.inf, math.nan, "-1"):
        with pytest.raises(ValueError, match="kde_bandwidth"):
            ExperimentSpec(kde_bandwidth=bandwidth)
    with pytest.raises(ValueError):
        ExperimentSpec(kde_bandwidth="wide")
    assert ExperimentSpec().sample_counts == DEFAULT_SAMPLE_COUNTS
    # counts from a config file may arrive as strings
    spec = ExperimentSpec(trials="2", jsd_points="300")
    assert (spec.trials, spec.jsd_points) == (2, 300)
    for field in ("trials", "jsd_points"):
        for bad in ("two", "0"):
            with pytest.raises(ValueError):
                ExperimentSpec(**{field: bad})


def test_row_count_matches_matrix():
    rows = run_experiments(TINY, clock=_ZERO_CLOCK)
    assert len(rows) == 3
    assert [r.trial for r in rows] == [0, 1, 2]


def test_same_target_for_all_methods_in_cell():
    # the target depends only on (base_seed, family, dims, trial)
    seed = derive_seed(5, "target", "gmm5", 1, 0)
    a = make_gmm5_target(np.random.default_rng(seed), 1)
    b = make_gmm5_target(np.random.default_rng(seed), 1)
    np.testing.assert_array_equal(a.model.means, b.model.means)
    np.testing.assert_array_equal(a.model.variances, b.model.variances)


def test_run_single_all_methods():
    spec = ExperimentSpec(methods=tuple(sorted(METHODS)), families=("gmm5",),
                          dims=(1,), sample_counts=(32,), trials=1,
                          base_seed=1, jsd_points=500)
    for method in spec.methods:
        row = run_single(spec, method, "gmm5", 1, 32, 0, clock=_ZERO_CLOCK)
        assert row.error is None, f"{method}: {row.error}"
        assert 0.0 <= row.ness <= 1.0 + 1e-12
        assert 0.0 <= row.jsd <= LN2
        if method == "mh":
            assert math.isnan(row.evidence_mse)
        else:
            assert row.evidence_mse >= 0.0


def test_error_rows_do_not_abort():
    spec = ExperimentSpec(methods=("tpais",), families=("egg",), dims=(8,),
                          sample_counts=(16,), trials=2, base_seed=0,
                          jsd_points=100)
    rows = run_experiments(spec, clock=_ZERO_CLOCK)
    assert len(rows) == 2
    assert all(r.error is not None for r in rows)
    assert all(math.isnan(r.ness) for r in rows)


def test_rows_deterministic_and_csv_identical(tmp_path):
    spec = ExperimentSpec(methods=("tpais", "mh"), families=("normal",),
                          dims=(1,), sample_counts=(16, 32), trials=2,
                          base_seed=9, jsd_points=400)
    rows_a = run_experiments(spec, clock=_ZERO_CLOCK)
    rows_b = run_experiments(spec, clock=_ZERO_CLOCK)
    assert rows_a == rows_b
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows_a, path_a)
    emit_csv(rows_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_cell_isolation():
    # adding other cells to the experiment matrix leaves a cell unchanged
    lone = ExperimentSpec(methods=("tpais",), families=("normal",), dims=(1,),
                          sample_counts=(16,), trials=2, base_seed=3,
                          jsd_points=300)
    wide = ExperimentSpec(methods=("tpais", "pmc"),
                          families=("normal", "egg"), dims=(1,),
                          sample_counts=(16, 64), trials=2, base_seed=3,
                          jsd_points=300)
    lone_rows = run_experiments(lone, clock=_ZERO_CLOCK)
    wide_rows = [r for r in run_experiments(wide, clock=_ZERO_CLOCK)
                 if r.method == "tpais" and r.family == "normal" and r.n == 16]
    assert lone_rows == wide_rows


def test_parallel_matches_sequential():
    spec = ExperimentSpec(methods=("tpais", "pmc-dm"), families=("normal",),
                          dims=(1,), sample_counts=(16,), trials=2,
                          base_seed=8, jsd_points=300)
    seq = run_experiments(spec, clock=_ZERO_CLOCK)
    par = run_experiments(spec, workers=2)
    assert len(seq) == len(par)
    for a, b in zip(seq, par):
        assert (a.method, a.family, a.dims, a.n, a.trial, a.seed) == \
               (b.method, b.family, b.dims, b.n, b.trial, b.seed)
        assert a.ness == b.ness and a.jsd == b.jsd
        assert (a.evidence_mse == b.evidence_mse
                or (math.isnan(a.evidence_mse) and math.isnan(b.evidence_mse)))


def test_csv_header_and_layout(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"
    row = ResultRow("tpais", "normal", 1, 16, 0, 7, 0.5, 0.1, 0.2, 0.0)
    emit_csv([row], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "tpais,normal,1,16,0,7,0.5,0.1,0.2,0.0"


def test_csv_floats_round_trip(tmp_path):
    rows = run_experiments(TINY, clock=_ZERO_CLOCK)
    path = tmp_path / "rt.csv"
    emit_csv(rows, path)
    for line, row in zip(path.read_text().splitlines()[1:], rows):
        fields = line.split(",")
        assert float(fields[6]) == row.ness
        assert float(fields[7]) == row.jsd


def test_emit_plots(tmp_path):
    spec = ExperimentSpec(methods=("tpais", "mh"), families=("normal",),
                          dims=(1,), sample_counts=(16, 32), trials=2,
                          base_seed=2, jsd_points=300)
    rows = run_experiments(spec, clock=_ZERO_CLOCK)
    paths = emit_plots(rows, tmp_path, spec)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["evidence_mse_normal_1d.svg", "jsd_normal_1d.svg",
                     "ness_normal_1d.svg", "wall_time_seconds_normal_1d.svg"]
    for p in paths:
        text = open(p).read()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
    jsd_plot = open(next(p for p in paths if "jsd" in str(p))).read()
    assert "tpais" in jsd_plot and ">mh<" in jsd_plot
    again = emit_plots(rows, tmp_path / "again", spec)
    assert open(again[0]).read() == open(paths[0]).read()


def test_cli_spec_from_args_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": ["mh"], "trials": 4,
                               "sample_counts": [16]}))
    parser = build_parser()
    args = parser.parse_args(["--config", str(cfg), "--trials", "2",
                              "--families", "normal", "--dims", "1"])
    spec = spec_from_args(args)
    assert spec.methods == ("mh",)      # from the config file
    assert spec.trials == 2             # flag wins over the file
    assert spec.families == ("normal",)
    assert spec.dims == (1,)


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["--config", str(cfg)]) == 2


@pytest.mark.parametrize("trials", ["two", None])
def test_cli_rejects_non_numeric_config_count(tmp_path, capsys, trials):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trials": trials}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_zero_kde_bandwidth(tmp_path, capsys):
    assert main(["--kde-bandwidth", "0", "--out-dir", str(tmp_path)]) == 2
    assert "kde_bandwidth" in capsys.readouterr().err


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["--methods", "tpais", "--families", "normal", "--dims", "1",
            "--n-grid", "16", "--trials", "2", "--seed", "3",
            "--jsd-points", "300", "--out-dir", str(out), "--format", "both"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "2 runs, 0 failed" in captured.out
    assert (out / "results.csv").exists()
    assert (out / "jsd_normal_1d.svg").exists()


def test_cli_reports_failures(tmp_path):
    out = tmp_path / "out"
    argv = ["--methods", "tpais", "--families", "egg", "--dims", "8",
            "--n-grid", "16", "--trials", "1", "--jsd-points", "100",
            "--out-dir", str(out), "--format", "csv"]
    assert main(argv) == 1


def test_cli_csv_stable_up_to_timing(tmp_path):
    argv = ["--methods", "tpais", "--families", "normal", "--dims", "1",
            "--n-grid", "16", "--trials", "2", "--seed", "3",
            "--jsd-points", "300", "--format", "csv"]
    assert main(argv + ["--out-dir", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "r2")]) == 0
    strip = lambda p: [line.rsplit(",", 1)[0] for line in
                       (p / "results.csv").read_text().splitlines()]
    assert strip(tmp_path / "r1") == strip(tmp_path / "r2")
