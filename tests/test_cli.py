import json

import numpy as np
import pytest

from esh.cli import main
from esh.dataset import load_features, load_labels
from esh.encoder import load_codes, load_model, unpack_codes
from esh.evaluation import GroundTruth, evaluate, rank_database
from esh.optimizer import init_projection, stiefel_project


def run(*argv):
    return main([str(a) for a in argv])


def synth_small(tmp_path, **over):
    args = dict(clusters=4, per_cluster=30, dims=8, spread=1.0, seed=5)
    args.update(over)
    out = tmp_path / "data"
    code = run(
        "synth", "--clusters", args["clusters"], "--per-cluster", args["per_cluster"],
        "--dims", args["dims"], "--spread", args["spread"], "--seed", args["seed"],
        "--out", out,
    )
    assert code == 0
    return out


def test_synth_round_trip_and_count(tmp_path):
    out = synth_small(tmp_path)
    X = load_features(out / "features.csv")
    labels = load_labels(out / "labels.csv")
    assert X.shape == (120, 8)
    assert len(labels) == 120
    assert len(set(l[0] for l in labels.labels)) == 4
    assert (out / "features.csv.manifest.json").exists()


def test_synth_seed_repeat_identical_files(tmp_path):
    a = synth_small(tmp_path / "a")
    b = synth_small(tmp_path / "b")
    assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


def test_synth_binary_format(tmp_path):
    out = tmp_path / "data"
    assert run("synth", "--clusters", 2, "--per-cluster", 3, "--dims", 4,
               "--format", "binary", "--out", out) == 0
    X = load_features(out / "features.eshf")
    assert X.shape == (6, 4)


def test_train_zero_step_single_iteration(tmp_path):
    data = synth_small(tmp_path)
    out = tmp_path / "run"
    code = run(
        "train", "--features", data / "features.csv", "--bits", 4, "--algo", "esh1",
        "--iters", 1, "--eta", 0.0, "--anchors", 20, "--seed", 11, "--out", out,
    )
    assert code == 0
    model = load_model(out / "model.eshm")
    w_seed = int(np.random.SeedSequence(11).generate_state(2)[1])
    W0 = init_projection(8, 4, w_seed)
    assert np.array_equal(model.W, stiefel_project(W0).astype(np.float32))
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iteration,loss,orth_residual,step_size"
    assert len(trace) == 2  # header + the single iteration


def test_train_rerun_byte_identical(tmp_path):
    data = synth_small(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run("train", "--features", data / "features.csv", "--bits", 6,
                   "--iters", 25, "--anchors", 25, "--seed", 3, "--out", out) == 0
        outs.append(out)
    a, b = outs
    assert (a / "model.eshm").read_bytes() == (b / "model.eshm").read_bytes()
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "model.eshm.manifest.json").read_bytes() == (b / "model.eshm.manifest.json").read_bytes()


def test_train_trace_descends_on_blobs(tmp_path):
    data = synth_small(tmp_path, per_cluster=60)
    out = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 8,
               "--iters", 60, "--anchors", 30, "--seed", 1, "--out", out) == 0
    rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
    losses = [float(r.split(",")[1]) for r in rows]
    assert len(losses) == 60
    assert losses[-1] <= losses[0]


def test_encode_train_set_equals_stored_codes(tmp_path):
    data = synth_small(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 6,
               "--iters", 20, "--anchors", 20, "--seed", 2, "--out", run_dir,
               "--retain-train") == 0
    model = load_model(run_dir / "model.eshm")
    enc = tmp_path / "enc"
    assert run("encode", "--model", run_dir / "model.eshm",
               "--features", data / "features.csv", "--out", enc) == 0
    codes = load_codes(enc / "codes.eshb")
    assert np.array_equal(codes.words, model.B.words)


def test_query_results_match_ranking_oracle(tmp_path):
    data = synth_small(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 8,
               "--iters", 20, "--anchors", 20, "--seed", 4, "--out", run_dir) == 0
    enc = tmp_path / "enc"
    assert run("encode", "--model", run_dir / "model.eshm",
               "--features", data / "features.csv", "--out", enc) == 0
    qdir = tmp_path / "q"
    assert run("query", "--model", run_dir / "model.eshm",
               "--features", data / "features.csv",
               "--db-codes", enc / "codes.eshb", "--top", 5, "--out", qdir) == 0

    model = load_model(run_dir / "model.eshm")
    db = load_codes(enc / "codes.eshb")
    X = load_features(data / "features.csv")
    q_codes = model.encode(X, mode="graph")
    rows = (qdir / "results.csv").read_text().strip().splitlines()
    assert rows[0] == "query_id,rank,db_id,distance"
    assert len(rows) == 1 + 5 * X.shape[0]
    for qi in (0, 7, 64):
        ranking = rank_database(q_codes.words[qi], db)
        got = [r.split(",") for r in rows[1 + qi * 5 : 1 + qi * 5 + 5]]
        assert [int(g[2]) for g in got] == list(ranking.ids[:5])
        assert [int(g[3]) for g in got] == list(ranking.distances[:5])


def test_query_rejects_top_below_one(tmp_path, capsys):
    data = synth_small(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 4,
               "--iters", 2, "--anchors", 10, "--seed", 1, "--out", run_dir) == 0
    enc = tmp_path / "enc"
    assert run("encode", "--model", run_dir / "model.eshm",
               "--features", data / "features.csv", "--out", enc) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"top": 0}))
    common = ("query", "--model", run_dir / "model.eshm", "--features", data / "features.csv",
              "--db-codes", enc / "codes.eshb")
    for i, extra in enumerate((("--top", -1), ("--top", 0), ("--config", cfg))):
        out = tmp_path / f"q{i}"
        assert run(*common, *extra, "--out", out) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "--top" in err["message"]
        assert not (out / "results.csv").exists()


def write_codes(tmp_path, name, bits_matrix):
    from esh.encoder import pack_codes, save_codes

    p = tmp_path / name
    save_codes(pack_codes(np.asarray(bits_matrix)), p)
    return p


def test_eval_identity_database_map_one(tmp_path):
    B = np.eye(8) * 2 - 1  # eight distinct codes
    cp = write_codes(tmp_path, "codes.eshb", B)
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{i}\n" for i in range(8)))
    out = tmp_path / "ev"
    assert run("eval", "--query-codes", cp, "--db-codes", cp,
               "--query-labels", labels, "--labels", labels,
               "--precision-at", "1", "--out", out) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["map"] == 1.0
    assert doc["precision_at"]["1"] == 1.0


def test_eval_matches_library_oracle(tmp_path):
    rng = np.random.default_rng(6)
    qb = np.where(rng.standard_normal((9, 10)) > 0, 1, -1)
    dbb = np.where(rng.standard_normal((40, 10)) > 0, 1, -1)
    qp = write_codes(tmp_path, "q.eshb", qb)
    dbp = write_codes(tmp_path, "db.eshb", dbb)
    qlab = tmp_path / "ql.csv"
    qlab.write_text("".join(f"{int(v)}\n" for v in rng.integers(0, 3, 9)))
    dlab = tmp_path / "dl.csv"
    dlab.write_text("".join(f"{int(v)}\n" for v in rng.integers(0, 3, 40)))
    out = tmp_path / "ev"
    assert run("eval", "--query-codes", qp, "--db-codes", dbp,
               "--query-labels", qlab, "--labels", dlab,
               "--precision-at", "5,20", "--radius", 3, "--out", out) == 0
    doc = json.loads((out / "report.json").read_text())

    from esh.encoder import load_codes as lc

    gt = GroundTruth(load_labels(qlab), load_labels(dlab))
    rep = evaluate(lc(qp), lc(dbp), gt, depths=(5, 20), radius=3)
    assert doc["map"] == rep.map
    assert doc["macro_map"] == rep.macro_map
    assert doc["precision_at"] == {"5": rep.precision_at[5], "20": rep.precision_at[20]}
    assert doc["precision_at_radius"] == rep.precision_at_radius
    pr_lines = (out / "pr_curve.csv").read_text().strip().splitlines()[1:]
    got_prec = np.array([float(l.split(",")[1]) for l in pr_lines])
    assert np.array_equal(got_prec, rep.pr_precision)


def test_config_file_with_flag_override(tmp_path):
    data = synth_small(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "features": str(data / "features.csv"),
        "bits": 4, "iters": 5, "anchors": 20, "seed": 8,
    }))
    out = tmp_path / "run"
    assert run("train", "--config", cfg, "--iters", 3, "--out", out) == 0
    model = load_model(out / "model.eshm")
    assert model.k == 4  # from config
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3  # flag overrode config
    manifest = json.loads((out / "model.eshm.manifest.json").read_text())
    assert manifest["config"]["iters"] == 3
    assert manifest["config"]["bits"] == 4
    assert len(manifest["config_sha256"]) == 64


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"itres": 5}))
    assert run("train", "--config", cfg, "--features", "x.csv",
               "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().err)
    assert "itres" in err["message"]


def test_missing_input_reports_json_error(tmp_path, capsys):
    assert run("train", "--features", tmp_path / "nope.csv",
               "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert "nope.csv" in err["message"]


def test_missing_required_flag_reports_error(tmp_path, capsys):
    assert run("encode", "--features", "f.csv", "--out", tmp_path / "o") == 1
    err = json.loads(capsys.readouterr().err)
    assert "--model" in err["message"]


def test_bits_mismatch_between_model_and_codes(tmp_path, capsys):
    data = synth_small(tmp_path)
    r4 = tmp_path / "r4"
    r6 = tmp_path / "r6"
    for bits, out in ((4, r4), (6, r6)):
        assert run("train", "--features", data / "features.csv", "--bits", bits,
                   "--iters", 5, "--anchors", 15, "--seed", 1, "--out", out) == 0
    enc = tmp_path / "enc"
    assert run("encode", "--model", r4 / "model.eshm",
               "--features", data / "features.csv", "--out", enc) == 0
    assert run("query", "--model", r6 / "model.eshm",
               "--features", data / "features.csv",
               "--db-codes", enc / "codes.eshb", "--out", tmp_path / "q") == 1
    err = json.loads(capsys.readouterr().err)
    assert "bits" in err["message"]


def test_eval_respects_thread_env(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    qb = np.where(rng.standard_normal((6, 8)) > 0, 1, -1)
    dbb = np.where(rng.standard_normal((30, 8)) > 0, 1, -1)
    qp = write_codes(tmp_path, "q.eshb", qb)
    dbp = write_codes(tmp_path, "db.eshb", dbb)
    qlab = tmp_path / "ql.csv"
    qlab.write_text("".join(f"{int(v)}\n" for v in rng.integers(0, 2, 6)))
    dlab = tmp_path / "dl.csv"
    dlab.write_text("".join(f"{int(v)}\n" for v in rng.integers(0, 2, 30)))
    reports = []
    for threads in ("1", "4"):
        monkeypatch.setenv("ESH_THREADS", threads)
        out = tmp_path / f"ev{threads}"
        assert run("eval", "--query-codes", qp, "--db-codes", dbp,
                   "--query-labels", qlab, "--labels", dlab,
                   "--precision-at", "5", "--out", out) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
