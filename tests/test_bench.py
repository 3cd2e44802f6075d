"""Benchmark harness tests: seeding, rows, CSV/SVG output, CLI wiring."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from tpais import bench
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
    for bandwidth in (0.0, -0.1, math.inf, math.nan, "-1", True, False,
                      np.True_):
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


def test_spec_rejects_non_integral_counts():
    for key, bad in (("trials", 2.7), ("trials", "two"), ("trials", "2.5"),
                     ("trials", None), ("trials", math.nan),
                     ("jsd_points", 300.5), ("jsd_points", math.inf),
                     ("dims", (1.9,)), ("sample_counts", (16, 32.5)),
                     ("dims", 2), ("methods", 5), ("families", None),
                     ("base_seed", "x"), ("base_seed", 2.5),
                     ("base_seed", None), ("trials", True),
                     ("jsd_points", np.True_), ("dims", [True]),
                     ("sample_counts", [16, np.True_]),
                     ("base_seed", False)):
        with pytest.raises(ValueError, match=key):
            ExperimentSpec(**{key: bad})
    # whole numbers of any type, and strings spelling them, are accepted
    spec = ExperimentSpec(trials=2.0, dims=(np.int64(2),),
                          sample_counts=("16", 32), base_seed="-7")
    assert (spec.trials, spec.dims, spec.sample_counts) == (2, (2,), (16, 32))
    assert type(spec.dims[0]) is int
    assert spec.base_seed == -7
    # seeds are exact at any size: no round trip through a float
    assert ExperimentSpec(base_seed=str(2 ** 64 + 1)).base_seed == 2 ** 64 + 1


def test_base_seed_names_the_same_runs_whatever_its_type():
    rows = [run_single(ExperimentSpec(base_seed=seed, jsd_points=100),
                       "tpais", "normal", 1, 16, 0, clock=_ZERO_CLOCK)
            for seed in (3, 3.0, "3", np.int64(3))]
    assert len({row.seed for row in rows}) == 1
    assert rows[0].seed == derive_seed(3, "run", "tpais", "normal", 1, 16, 0)


def test_spec_rejects_repeated_entries():
    # one cell would run twice and write two rows with the same key
    with pytest.raises(ValueError, match="methods lists 'tpais-nr'"):
        ExperimentSpec(methods="tpais-nr,tpais-nr")
    with pytest.raises(ValueError, match="families lists 'egg'"):
        ExperimentSpec(families=["egg", "normal", "egg"])
    # repeats are found after coercion
    with pytest.raises(ValueError, match="dims lists 1 more"):
        ExperimentSpec(dims=[1, "1"])
    with pytest.raises(ValueError, match="sample_counts lists 16 more"):
        ExperimentSpec(sample_counts=[16, 32, 16.0])
    assert ExperimentSpec(dims=[1, "2", 3.0]).dims == (1, 2, 3)


def test_spec_rejects_empty_lists():
    for key in ("methods", "families", "dims", "sample_counts"):
        with pytest.raises(ValueError, match=f"{key} must not be empty"):
            ExperimentSpec(**{key: ()})


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


def test_evidence_score_is_the_exact_square(monkeypatch):
    # CPython's float ** calls libm pow, which can round this square one
    # ulp above the exact d * d; the row takes metrics.evidence_mse
    evidence = 1.930806446803937
    sample, report = METHODS["tpais"]

    def fixed(state, target, spec):
        ness, _, density = report(state, target, spec)
        return ness, evidence, density

    monkeypatch.setitem(bench.METHODS, "tpais", (sample, fixed))
    row = run_single(TINY, "tpais", "normal", 1, 16, 0, clock=_ZERO_CLOCK)
    d = evidence - 1.0
    assert row.error is None and row.evidence_mse == d * d


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
    spec = ExperimentSpec(methods=("tpais", "pmc-dm", "mh"),
                          families=("normal",),
                          dims=(1,), sample_counts=(16,), trials=2,
                          base_seed=8, jsd_points=300)
    seq = run_experiments(spec, clock=_ZERO_CLOCK)
    par = run_experiments(spec, workers=2)
    assert [dataclasses.replace(r, wall_time_seconds=0.0) for r in par] == seq


@pytest.mark.parametrize("trials, workers", [(1, 2), (3, 2), (4, 2), (9, 2),
                                             (4, 3)])
def test_parallel_runs_give_every_worker_a_chunk(monkeypatch, trials,
                                                 workers):
    chunks = []

    class Recording(bench.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kwargs):
            chunks.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Recording)
    spec = dataclasses.replace(TINY, trials=trials, jsd_points=100)
    par = run_experiments(spec, workers=workers)
    (chunksize,) = chunks
    # up to 4 runs a chunk, and a chunk for each worker when there are
    # as many runs as workers
    assert 1 <= chunksize <= 4
    assert math.ceil(trials / chunksize) >= min(trials, workers)
    seq = run_experiments(spec, clock=_ZERO_CLOCK)
    assert [dataclasses.replace(r, wall_time_seconds=0.0) for r in par] == seq


def test_rows_compare_nan_fields_by_value():
    a = ResultRow("mh", "normal", 1, 16, 0, 7, 0.5, 0.1, math.nan, 0.0)
    b = ResultRow("mh", "normal", 1, 16, 0, 7, 0.5, 0.1, float("nan"), 0.0)
    assert a.evidence_mse is not b.evidence_mse and a == b
    assert dataclasses.replace(a, jsd=np.float64("nan")) == \
        dataclasses.replace(b, jsd=float("nan"))
    assert a != dataclasses.replace(b, evidence_mse=0.2)
    assert dataclasses.replace(a, evidence_mse=0.2) != b
    assert a != dataclasses.replace(a, error="ValueError: x")


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


@pytest.mark.parametrize("text", ['["methods"]', "3", '"tpais"'])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize("trials", ["two", None])
def test_cli_rejects_non_numeric_config_count(tmp_path, capsys, trials):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trials": trials}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("trials", 2.7), ("dims", [1.9]),
                                        ("sample_counts", [16, "x"]),
                                        ("jsd_points", "two"), ("dims", 2),
                                        ("base_seed", "x"),
                                        ("kde_bandwidth", "wide"),
                                        ("trials", True), ("dims", [True]),
                                        ("base_seed", False),
                                        ("kde_bandwidth", True)])
def test_cli_rejects_non_integral_config_count(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert os.listdir(tmp_path) == ["bad.json"]  # nothing was run


@pytest.mark.parametrize("flag, key", [("--methods", "methods"),
                                       ("--families", "families"),
                                       ("--dims", "dims"),
                                       ("--n-grid", "sample_counts")])
def test_cli_rejects_empty_list_flag(tmp_path, capsys, flag, key):
    assert main([flag, "", "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{key} must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing was run


def test_cli_rejects_empty_config_list(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"families": []}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "families must not be empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["empty.json"]


def test_cli_rejects_a_repeated_list_entry(tmp_path, capsys):
    assert main(["--methods", "tpais-nr,tpais-nr", "--families", "normal",
                 "--dims", "1", "--n-grid", "16", "--trials", "1",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "methods lists 'tpais-nr' more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing was run


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_a_worker_count_below_one(tmp_path, capsys, workers):
    # a tiny matrix, so that a count that slips through runs quickly
    assert main(["--workers", workers, "--methods", "tpais-nr",
                 "--families", "normal", "--dims", "1", "--n-grid", "16",
                 "--trials", "1", "--jsd-points", "100",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "workers must be a whole number >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # nothing was run


def test_cli_rejects_zero_kde_bandwidth(tmp_path, capsys):
    for text in ("0", "wide"):
        assert main(["--kde-bandwidth", text, "--out-dir", str(tmp_path)]) == 2
        assert "kde_bandwidth" in capsys.readouterr().err


@pytest.mark.parametrize("flag, key, text, value", [
    pytest.param(*case, id=case[1]) for case in (
        ("--methods", "methods", "tpais", ("tpais",)),
        ("--families", "families", " normal, egg ,", ("normal", "egg")),
        ("--dims", "dims", "12", (12,)),
        ("--n-grid", "sample_counts", "16,64", (16, 64)),
        ("--trials", "trials", "3", 3),
        ("--seed", "base_seed", "-3", -3),
        ("--jsd-points", "jsd_points", "300", 300),
        ("--kde-bandwidth", "kde_bandwidth", "0.1", 0.1))])
def test_config_text_and_flag_text_give_the_same_spec(tmp_path, flag, key,
                                                      text, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: text}))
    parser = build_parser()
    from_file = spec_from_args(parser.parse_args(["--config", str(cfg)]))
    from_flag = spec_from_args(parser.parse_args([flag, text]))
    assert getattr(from_flag, key) == value
    assert from_file == from_flag


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


def test_cli_rejects_an_out_dir_it_cannot_make(tmp_path, capsys,
                                               monkeypatch):
    # checked before the matrix runs, so a long matrix loses nothing
    (tmp_path / "not_a_dir").write_text("")
    out = tmp_path / "not_a_dir" / "sub"

    def no_run(*args, **kwargs):
        raise AssertionError("the matrix ran")

    monkeypatch.setattr("tpais.cli.run_experiments", no_run)
    argv = ["--methods", "mh", "--families", "normal", "--dims", "1",
            "--n-grid", "16", "--trials", "1", "--jsd-points", "100",
            "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


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
