import threading

import numpy as np
import pytest

import tracing
from tracing import Recorder, Span, per_layer_metrics, self_times


def span(name, start, end, parent=-1, thread=1):
    return Span(name, start, end, parent, thread, "test")


def test_self_time_subtracts_nested_children():
    spans = [
        span("cli.cmd_train", 0.0, 10.0),
        span("optimizer.train", 1.0, 9.0, parent=0),
        span("optimizer.cayley_step", 2.0, 3.0, parent=1),
        span("optimizer.cayley_step", 4.0, 6.5, parent=1),
        span("optimizer.tangent_gradient", 5.0, 6.0, parent=3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 4.5, 1.0, 1.5, 1.0])


def test_self_time_ignores_spans_on_other_threads():
    # evaluate waits on the main thread while pool threads rank; their
    # spans are roots of their own threads and do not reduce its self time
    spans = [
        span("evaluation.evaluate", 0.0, 4.0, thread=1),
        span("evaluation.rank_database", 0.5, 2.0, thread=2),
        span("evaluation.rank_database", 0.6, 3.5, thread=3),
        span("evaluation.hamming_distances", 1.0, 1.5, parent=1, thread=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 2.9, 0.5])
    # busy time sums across threads, so it can exceed the wall time
    assert tracing.busy_seconds(spans, "evaluation.rank_database") == pytest.approx(4.4)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("cli.cmd_eval", 0.0, 5.0),
        span("dataset.load_labels", 1.0, 3.0, parent=0),
        span("dataset.load_labels", 2.0, 4.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_recorder_links_parents_per_thread():
    rec = Recorder("test")
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: [inner() for _ in range(2)])

    workers = [threading.Thread(target=outer) for _ in range(3)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    assert len(rec.spans) == 9
    for s in rec.spans:
        if s.name == "inner":
            parent = rec.spans[s.parent]
            assert parent.name == "outer" and parent.thread == s.thread
        else:
            assert s.parent == -1
    assert all(v >= 0 for v in self_times(rec.spans))


def test_recorder_closes_span_when_call_raises():
    rec = Recorder("test")

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert rec.spans[0].name == "boom" and rec.spans[0].end >= rec.spans[0].start


def test_install_wraps_lookups_and_restores(monkeypatch):
    import esh.cli
    import esh.optimizer

    original = esh.optimizer.cayley_step
    rec = Recorder("test")
    installed = tracing.install(rec)
    try:
        assert "optimizer.cayley_step" in installed
        assert esh.cli.train is esh.optimizer.train
        W = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 2)))[0]
        esh.optimizer.cayley_step(W, W, 0.1)
    finally:
        rec.restore()
    assert esh.optimizer.cayley_step is original
    assert [s.name for s in rec.spans] == ["optimizer.cayley_step"]
    assert rec.counts["optimizer.cayley_gflop"] == pytest.approx(((2 / 3) * 216 + 8 * 36 * 2) / 1e9)


def test_missing_name_is_skipped_and_its_metric_absent(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (("optimizer", "no_such_fn"),))
    rec = Recorder("test")
    installed = tracing.install(rec)
    rec.restore()
    assert "optimizer.no_such_fn" not in installed
    without = [n for n in installed if n != "optimizer.cayley_step"]
    metrics = per_layer_metrics([], {}, without)
    assert "optimizer.cayley_step_s" not in metrics
    assert "optimizer.cayley_step_calls" not in metrics
    assert "optimizer.cayley_gflop" not in metrics
    assert metrics["optimizer.train_s"] == 0


def test_loss_grad_is_self_time_of_train():
    spans = [
        span("optimizer.train", 0.0, 10.0),
        span("optimizer.init_projection", 0.0, 1.0, parent=0),
        span("optimizer.cayley_step", 2.0, 5.0, parent=0),
    ]
    metrics = per_layer_metrics(spans, {}, [s.name for s in spans])
    assert metrics["optimizer.train_s"] == pytest.approx(10.0)
    assert metrics["optimizer.loss_grad_s"] == pytest.approx(6.0)
    assert metrics["optimizer.cayley_step_s"] == pytest.approx(3.0)
