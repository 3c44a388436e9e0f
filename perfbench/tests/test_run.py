"""End-to-end runs of the benchmark on tiny workloads.

They check that every metric BENCHMARK.json names is reported with its
unit, that the correctness checks pass, and that the benchmark refuses to
run without the esh sources beside it.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from workloads import Workload

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = dict(clusters=4, per_cluster=100, dims=16, spread=1.0, queries=40,
            round_s=1.0)


@pytest.fixture
def tiny(monkeypatch):
    train = Workload(name="tiny_train", train_flags=(
        "--algo", "esh2", "--bits", "16", "--anchors", "20", "--iters", "20"), **TINY)
    serve = Workload(name="tiny_serve", train_flags=(
        "--algo", "esh1", "--bits", "16", "--anchors", "20", "--iters", "20"),
        train_in_setup=True, **TINY)
    for wl in (train, serve):
        monkeypatch.setitem(workloads.WORKLOADS, wl.name, wl)
    yield
    for wl in (train, serve):
        for trace in (0, 1):
            shutil.rmtree(run.ROOT / ".perfbench_work" / f"{wl.name}-seed3-trace{trace}",
                          ignore_errors=True)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return out, json.loads(out[-1])


@pytest.mark.parametrize("workload,trace,section", [
    ("tiny_train", 0, "end_to_end"),
    ("tiny_serve", 0, "end_to_end"),
    ("tiny_train", 1, "per_layer"),
    ("tiny_serve", 1, "per_layer"),
])
def test_every_metric_reported_with_its_unit(tiny, capsys, workload, trace, section):
    lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 40  # commands, every query, every check
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and f" {unit} (" in line for line in lines)
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_sees_every_layer(tiny, capsys):
    _, result = _run(capsys, "tiny_train", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["optimizer.iterations"] == 20
    assert m["optimizer.cayley_step_calls"] == 20
    assert m["evaluation.codes_scanned"] > 0
    assert m["optimizer.loss_grad_s"] < m["optimizer.train_s"]
    assert m["cli.self_s"] < m["cli.train_s"] + m["cli.encode_s"] + m["cli.query_s"] + m["cli.eval_s"]


def test_peak_rss_excludes_the_parents_memory(tiny, capsys):
    # the set-up process holds far more memory than the measured phase
    # needs; the phase's peak must not start from the parent's
    ballast = np.ones(200 * 2**20 // 8)
    _, result = _run(capsys, "tiny_serve", 0)
    assert ballast.sum() > 0
    assert result["metrics"]["peak_rss_mb"]["value"] < 200


def test_query_latency_excludes_time_off_the_cpu(tmp_path, monkeypatch):
    # a query that waits 5 ms without running, as when a neighbour holds
    # the CPU, takes 5 ms of wall time but adds nothing to its latency
    import time
    from types import SimpleNamespace

    from esh import dataset, encoder, evaluation

    import measure

    words = np.zeros((1, 1), dtype=np.uint64)
    model = SimpleNamespace(encode=lambda q: (time.sleep(0.005), SimpleNamespace(words=words))[1])
    monkeypatch.setattr(encoder, "load_model", lambda path: model)
    monkeypatch.setattr(encoder, "load_codes", lambda path: SimpleNamespace(n_words=1))
    monkeypatch.setattr(dataset, "load_features", lambda path: np.zeros((20, 4)))
    monkeypatch.setattr(evaluation, "rank_database", lambda w, db: SimpleNamespace(
        ids=np.arange(10), distances=np.zeros(10, dtype=np.int64)))
    cpu, wall = measure.closed_loop("model", "codes", "queries", tmp_path,
                                    workloads.Operations(), warmup=0)
    assert min(wall) >= 5.0
    assert max(cpu) < 2.5


def test_phase_past_its_deadline_reports_what_it_measured(tiny, capsys, monkeypatch):
    # no time left after set-up: the first block runs, the second does not
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0)
    monkeypatch.setattr(run, "SLOWDOWN", 0)
    lines, result = _run(capsys, "tiny_train", 0)
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.startswith("failed: measured phase within its time limit: stopped after 1 of 2")
               for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_refuses_to_run_without_esh_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
