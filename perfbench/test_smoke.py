"""Smoke test of the benchmark at tiny sample counts.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("setup_s", "wall_s", "samples_per_s", "report_s",
              "target_evals_per_sample", "ness", "jsd", "evidence_mse",
              "error_rate", "peak_rss_mb")
PER_LAYER = (
    "tree.expand_calls", "tree.expand_s", "tree.leaves_calls", "tree.leaves_s",
    "tree.leaf_count", "tree.max_level", "sampler.run_tp_ais_s",
    "sampler.self_s", "sampler.target_share", "sampler.leaf_sample_set_s",
    "sampler.evidence_from_tree_s", "proposal.density_calls",
    "proposal.density_pairs", "proposal.density_s",
    "proposal.mixture_weights_calls", "proposal.mixture_weights_s",
    "targets.eval_calls", "targets.eval_points", "targets.points_per_call",
    "targets.eval_s", "metrics.jsd_s", "metrics.kde_density_s",
    "metrics.kde_pairs", "metrics.ess_mcmc_s", "baselines.run_mh_s",
    "baselines.run_pmc_s", "bench.run_single_s", "bench.run_single_max_s",
    "bench.error_rows", "plots.emit_plots_s", "trace.overhead_s",
)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny_args(workload, trace):
    return ["--workload", workload, "--seed", "5", "--seconds", "0.2",
            "--trace", trace, "--tiny"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["grow", "resample", "matrix"])
def test_every_metric_printed_and_outputs_checked(workload, trace):
    done = run_bench(*tiny_args(workload, trace))
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    printed = {line.split()[0] for line in table if line.startswith("  ")}
    assert set(PER_LAYER if trace == "1" else END_TO_END) <= printed
    assert any(line.startswith("fingerprint ") for line in table)
    assert any("OPENBLAS_NUM_THREADS=1" in line for line in table)
    if trace == "0":
        assert any(line.startswith("host speed: ") for line in table)


def test_tree_checks_flag_bad_outputs():
    grow = workloads.Grow(3, workloads.TINY)
    raw = grow.run(speed.Probe())
    assert not any(op.problems for op in grow.check(raw, 0).ops)

    _, _, _, outputs = raw
    call, result, _ = outputs[0]
    leaves = result.tree.leaves()
    result.tree.leaves = lambda: leaves[1:]
    result.sample_set.weights[0] = -1.0
    result.sample_set.samples[1] = 5.0
    outputs[0] = (call, result, (1.5, 0.9, 0.0))
    problems = " | ".join(grow.check(raw, 0).ops[0].problems)
    for text in ("weights not finite", "outside the domain",
                 "leaf volumes sum", "ness 1.5", "jsd 0.9"):
        assert text in problems

    result.sample_set = workloads.sampler.WeightedSampleSet(
        result.sample_set.samples[:3], result.sample_set.weights[:3])
    assert "returned 3 samples" in grow.check(raw, 0).ops[0].problems[0]


def test_matrix_checks_flag_error_rows():
    matrix = workloads.Matrix(3, workloads.TINY)
    wall_s, cells_s, rows, csv_lines, svg_count = matrix.run(speed.Probe())
    raw = (wall_s, cells_s, rows, csv_lines, svg_count)
    assert not any(op.problems for op in matrix.check(raw, 0).ops)
    rows[0].error = "RuntimeError: injected"
    bad = matrix.check((wall_s, cells_s, rows, csv_lines, svg_count - 1), 0)
    problems = [text for op in bad.ops for text in op.problems]
    assert "error row: RuntimeError: injected" in problems
    assert any("plots, expected" in text for text in problems)


def test_failed_check_makes_the_run_fail(monkeypatch, capsys):
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(workloads, "check_quality",
                        lambda op: op.problems.append("injected"))
    assert run.main(tiny_args("grow", "1")) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tmp-*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *tiny_args("grow", "0")],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
