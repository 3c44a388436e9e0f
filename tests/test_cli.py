import json
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import esh.cli as esh_cli
from esh.cli import QUERY_BLOCK_ROWS, main
from esh.dataset import load_features, load_labels, save_features
from esh.encoder import build_hash_model, load_codes, load_model, unpack_codes
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


def test_synth_binary_rejects_values_beyond_float32_range(tmp_path, capsys):
    out = tmp_path / "data"
    assert run("synth", "--clusters", 2, "--per-cluster", 3, "--dims", 4, "--spread", 1e39,
               "--format", "binary", "--out", out) == 1
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    err = json.loads(line)
    assert err["error"] == "FormatError"
    assert "beyond float32 range" in err["message"]
    assert list(out.iterdir()) == []  # no .eshf file that train would reject later


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


def assert_encode_of_train_set_equals_stored_codes(tmp_path, monkeypatch, features):
    # the training codes that esh train builds the vote matrix from
    built = []

    def build_and_keep(*args, **kwargs):
        model, codes = build_hash_model(*args, **kwargs)
        built.append(codes)
        return model, codes

    monkeypatch.setattr("esh.cli.build_hash_model", build_and_keep)
    run_dir = tmp_path / "run"
    assert run("train", "--features", features, "--bits", 6,
               "--iters", 20, "--anchors", 20, "--seed", 2, "--out", run_dir) == 0
    enc = tmp_path / "enc"
    assert run("encode", "--model", run_dir / "model.eshm",
               "--features", features, "--out", enc) == 0
    codes = load_codes(enc / "codes.eshb")
    assert len(built) == 1
    assert np.array_equal(codes.words, built[0].words)


def test_encode_train_set_equals_stored_codes(tmp_path, monkeypatch):
    data = synth_small(tmp_path)
    assert_encode_of_train_set_equals_stored_codes(tmp_path, monkeypatch, data / "features.csv")


def test_encode_binary_train_set_equals_stored_codes(tmp_path, monkeypatch):
    # 1200 rows of 300 values: the training codes and esh encode both read
    # the file in two blocks of rows
    data = tmp_path / "data"
    assert run("synth", "--clusters", 3, "--per-cluster", 400, "--dims", 300,
               "--format", "binary", "--out", data) == 0
    assert_encode_of_train_set_equals_stored_codes(tmp_path, monkeypatch, data / "features.eshf")


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


def per_row_results_csv(q_codes, db, top):
    """results.csv as the per-row loop of earlier releases wrote it."""
    top = min(top, db.n)
    lines = ["query_id,rank,db_id,distance\n"]
    for qi in range(q_codes.n):
        ranking = rank_database(q_codes.words[qi], db)
        for r in range(top):
            lines.append(f"{qi},{r + 1},{ranking.ids[r]},{ranking.distances[r]}\n")
    return "".join(lines).encode()


def test_query_results_bytes_equal_per_row_loop(tmp_path, monkeypatch):
    data = synth_small(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 6,
               "--iters", 10, "--anchors", 20, "--seed", 3, "--out", run_dir) == 0
    model = load_model(run_dir / "model.eshm")
    X = load_features(data / "features.csv")
    q_codes = model.encode(X, mode="graph")
    # 30 distinct rows in one block of results, then three rows ten times
    # each in turn, so that ties straddle every cut, in blocks of 16 rows
    for name, db_rows, block_rows in (("spread", np.arange(30), QUERY_BLOCK_ROWS),
                                      ("dups", np.tile([0, 40, 80], 10), 16)):
        monkeypatch.setattr("esh.cli.QUERY_BLOCK_ROWS", block_rows)
        small_db = tmp_path / f"{name}.csv"
        save_features(X[db_rows], small_db)
        enc = tmp_path / f"enc_{name}"
        assert run("encode", "--model", run_dir / "model.eshm",
                   "--features", small_db, "--out", enc) == 0
        db = load_codes(enc / "codes.eshb")
        for top in (1, 7, 50):
            qdir = tmp_path / f"q_{name}{top}"  # top 50 > the 30 database codes
            assert run("query", "--model", run_dir / "model.eshm",
                       "--features", data / "features.csv",
                       "--db-codes", enc / "codes.eshb", "--top", top, "--out", qdir) == 0
            assert (qdir / "results.csv").read_bytes() == per_row_results_csv(q_codes, db, top)


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


def test_encode_of_no_rows_is_a_json_error_not_an_unreadable_file(tmp_path, capsys, monkeypatch):
    data = synth_small(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 4,
               "--iters", 2, "--anchors", 10, "--seed", 1, "--out", run_dir) == 0
    # the feature readers refuse empty files, so feed esh encode no rows directly
    monkeypatch.setattr("esh.cli.FeatureFile", lambda path: np.zeros((0, 8)))
    enc = tmp_path / "enc"
    assert run("encode", "--model", run_dir / "model.eshm", "--features", data / "features.csv",
               "--query-mode", "linear", "--out", enc) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "at least one sample" in err["message"]
    assert not (enc / "codes.eshb").exists()


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


def test_eval_of_one_code_against_itself_writes_valid_json(tmp_path):
    # with its own row excluded, each query's ranking is empty: P@n is 0,
    # as P@radius is for an empty ball
    codes = write_codes(tmp_path, "one.eshb", [[1, -1, 1]])
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n")
    out = tmp_path / "ev"
    assert run("eval", "--query-codes", codes, "--db-codes", codes, "--query-labels", labels,
               "--labels", labels, "--exclude-self", "--out", out) == 0

    def refuse(token):
        raise AssertionError(f"report.json holds {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["precision_at"] == {"300": 0.0}
    assert report["precision_at_radius"] == 0.0
    assert report["map"] == 0.0


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


def test_config_values_of_the_wrong_type_rejected(tmp_path, capsys):
    data = synth_small(tmp_path)
    cp = write_codes(tmp_path, "codes.eshb", np.eye(4) * 2 - 1)
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n0\n1\n")
    train = ("train", "--features", data / "features.csv", "--iters", 2, "--anchors", 10)
    evals = ("eval", "--query-codes", cp, "--db-codes", cp,
             "--query-labels", labels, "--labels", labels)
    cases = (
        (train, {"bits": "8"}),
        (train, {"bits": 8.0}),
        (train, {"bits": True}),
        (train, {"eta": "0.1"}),
        (train, {"features": 3}),
        (evals, {"exclude_self": "false"}),
        (evals, {"skip_empty": "false"}),
        (evals, {"radius": None}),
        (evals, {"precision_at": 300}),
        (evals, {"precision_at": [300.9]}),
        (evals, {"precision_at": [100, True]}),
        (("synth",), {"format": ["csv"]}),
    )
    for i, (argv, doc) in enumerate(cases):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"o{i}"
        assert run(*argv, "--config", cfg, "--out", out) == 1, doc
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TypeError"
        assert repr(next(iter(doc))) in err["message"]
        assert not out.exists() or not any(out.iterdir())
    # retain_train is no option of esh train, so it is an unknown key
    cfg = tmp_path / "retain.json"
    cfg.write_text(json.dumps({"retain_train": True}))
    assert run(*train, "--config", cfg, "--out", tmp_path / "retain") == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "unknown config keys: ['retain_train']"}


def test_config_values_of_the_right_type_accepted(tmp_path):
    data = synth_small(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "features": str(data / "features.csv"), "bits": 4, "iters": 2, "anchors": 10,
        "eta": 1, "alpha": 0.5, "sigma2": None, "query_mode": "linear",
    }))
    assert run("train", "--config", cfg, "--algo", "esh1", "--out", tmp_path / "t") == 0
    assert load_model(tmp_path / "t" / "model.eshm").query_mode == "linear"
    cfg.write_text(json.dumps({"alpha": "auto"}))
    assert run("train", "--config", cfg, "--features", data / "features.csv", "--bits", 4,
               "--iters", 2, "--anchors", 10, "--out", tmp_path / "f") == 0
    assert load_model(tmp_path / "f" / "model.eshm").query_mode == "graph"

    cp = write_codes(tmp_path, "codes.eshb", np.eye(4) * 2 - 1)
    labels = tmp_path / "labels.csv"
    labels.write_text("0\n1\n0\n1\n")
    reports = []
    for i, doc in enumerate(({"precision_at": [1, 2], "exclude_self": True, "skip_empty": False},
                             {"precision_at": "1,2", "exclude_self": True, "cutoff": None})):
        cfg.write_text(json.dumps(doc))
        out = tmp_path / f"e{i}"
        assert run("eval", "--config", cfg, "--query-codes", cp, "--db-codes", cp,
                   "--query-labels", labels, "--labels", labels, "--out", out) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["precision_at"] == {"1": 0.25, "2": 0.375}  # own row excluded


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


def test_eval_rejects_cutoff_below_one(tmp_path, capsys):
    cp = write_codes(tmp_path, "codes.eshb", np.eye(6) * 2 - 1)
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{i % 3}\n" for i in range(6)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 0}))
    common = ("eval", "--query-codes", cp, "--db-codes", cp,
              "--query-labels", labels, "--labels", labels)
    for i, extra in enumerate((("--cutoff", -2), ("--cutoff", 0), ("--config", cfg))):
        out = tmp_path / f"ev{i}"
        assert run(*common, *extra, "--out", out) == 1, extra
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "cutoff" in err["message"]
        assert not (out / "report.json").exists()


def one_line_error(capsys):
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    return json.loads(line)


@pytest.mark.parametrize("rows, bad_row", [
    ("0\n1\n\n1\n0\n1\n", 2),  # a blank row
    ("0\n1\n0\n1\n0\n99999999999999999999999\n", 5),  # an id beyond int64
    ("0;1\n1\n0\n-99999999999999999999999;1\n0\n1\n", 3),  # the same in a multi-label file
])
def test_eval_label_errors_name_the_file_and_the_row(tmp_path, capsys, rows, bad_row):
    cp = write_codes(tmp_path, "codes.eshb", np.eye(6) * 2 - 1)
    good = tmp_path / "good.csv"
    good.write_text("".join(f"{i % 3}\n" for i in range(6)))
    bad = tmp_path / "bad.csv"
    bad.write_text(rows)
    for flag, other in (("--labels", "--query-labels"), ("--query-labels", "--labels")):
        out = tmp_path / f"ev{flag}"
        assert run("eval", "--query-codes", cp, "--db-codes", cp, flag, bad, other, good,
                   "--out", out) == 1
        err = one_line_error(capsys)
        assert err["error"] == "FormatError"
        assert str(bad) in err["message"]
        assert f"row {bad_row}" in err["message"]
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("depths, bad", [("0,5", "0"), ("-3", "-3"), ("5,0", "0")])
def test_eval_rejects_depths_below_one(tmp_path, capsys, depths, bad):
    cp = write_codes(tmp_path, "codes.eshb", np.eye(6) * 2 - 1)
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{i % 3}\n" for i in range(6)))
    out = tmp_path / "ev"
    assert run("eval", "--query-codes", cp, "--db-codes", cp, "--query-labels", labels,
               "--labels", labels, "--precision-at", depths, "--out", out) == 1
    err = one_line_error(capsys)
    assert err["error"] == "ValueError"
    assert f"depth must be >= 1, got {bad}" in err["message"]
    assert not (out / "report.json").exists()


def test_synth_rejects_unknown_format_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "bogus", "clusters": 2, "per_cluster": 3, "dims": 4}))
    out = tmp_path / "data"
    assert run("synth", "--config", cfg, "--out", out) == 1
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert "bogus" in err["message"]
    assert not out.exists() or not any(out.glob("features.*"))


def test_eval_rejects_negative_radius(tmp_path, capsys):
    cp = write_codes(tmp_path, "codes.eshb", np.eye(6) * 2 - 1)
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{i % 3}\n" for i in range(6)))
    out = tmp_path / "ev"
    assert run("eval", "--query-codes", cp, "--db-codes", cp, "--query-labels", labels,
               "--labels", labels, "--radius", -1, "--out", out) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "radius" in err["message"]
    assert not (out / "report.json").exists()


def assert_config_rejected_before_reading(tmp_path, capsys, monkeypatch, argv, bad):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for name in ("generate_synthetic", "load_features", "FeatureFile", "load_model",
                 "load_codes", "fit_anchor_graph"):
        monkeypatch.setattr(f"esh.cli.{name}", fail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    out = tmp_path / "out"
    assert run(*argv, "--config", cfg, "--out", out) == 1
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert not out.exists()


def an_input_file(tmp_path):
    # every reader is patched to fail, so one existing file stands for all inputs
    path = tmp_path / "f.csv"
    save_features(np.random.default_rng(0).standard_normal((20, 4)), path)
    return path


@pytest.mark.parametrize("bad", [{"query_mode": "bogus"}, {"eta": -1.0}, {"algo": "esh3"},
                                 {"sigma2": float("inf")}, {"sigma2": float("nan")}])
def test_train_checks_config_before_fitting_anchors(tmp_path, capsys, monkeypatch, bad):
    argv = ("train", "--features", an_input_file(tmp_path))
    assert_config_rejected_before_reading(tmp_path, capsys, monkeypatch, argv, bad)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_train_rejects_non_finite_sigma2_flag_before_reading(tmp_path, capsys, monkeypatch,
                                                             value):
    def fail(*args, **kwargs):
        raise AssertionError("input read before sigma2 was checked")

    monkeypatch.setattr("esh.cli.load_features", fail)
    out = tmp_path / "out"
    assert run("train", "--features", an_input_file(tmp_path), "--sigma2", value,
               "--out", out) == 1
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    err = json.loads(line)
    assert err["error"] == "ValueError"
    assert err["message"] == f"sigma2 must be finite and positive, got {value}"
    assert not out.exists()


def test_train_rejects_more_neighbours_than_anchors_before_reading(tmp_path, capsys,
                                                                  monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("input read before --snn was checked against --anchors")

    monkeypatch.setattr("esh.cli.load_features", fail)
    out = tmp_path / "out"
    assert run("train", "--features", an_input_file(tmp_path), "--snn", 40, "--anchors", 30,
               "--out", out) == 1
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    assert json.loads(line) == {"error": "ValueError",
                                "message": "--snn must be at most --anchors (30), got 40"}
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("--bits", 5), "--bits must be at most the 4 feature dimensions, got 5"),
    (("--bits", 2, "--snn", 0), "--snn must be >= 1, got 0"),
], ids=["bits", "snn"])
def test_train_checks_bits_and_snn_before_fitting_anchors(tmp_path, capsys, monkeypatch,
                                                          argv, message):
    def fail(*args, **kwargs):
        raise AssertionError("anchors fitted before the option was checked")

    monkeypatch.setattr("esh.cli.fit_anchor_graph", fail)
    out = tmp_path / "out"
    assert run("train", "--features", an_input_file(tmp_path), *argv, "--out", out) == 1
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    assert json.loads(line) == {"error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("command, bad", [
    ("synth", {"format": "bogus"}),
    ("encode", {"query_mode": "bogus"}),
    ("query", {"query_mode": "bogus"}),
    ("query", {"top": 0}),
])
def test_other_commands_check_config_before_reading_inputs(tmp_path, capsys, monkeypatch,
                                                           command, bad):
    f = an_input_file(tmp_path)
    inputs = {"synth": (), "encode": ("--model", f, "--features", f),
              "query": ("--model", f, "--features", f, "--db-codes", f)}
    assert_config_rejected_before_reading(tmp_path, capsys, monkeypatch,
                                          (command, *inputs[command]), bad)


@pytest.mark.parametrize("doc", ["abc", 5, [1, 2]])
def test_config_file_must_hold_a_json_object(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "data"
    assert run("synth", "--config", cfg, "--out", out) == 1
    line = capsys.readouterr().err
    assert line.count("\n") == 1
    err = json.loads(line)
    assert err["error"] == "TypeError"
    assert "must hold a JSON object" in err["message"]
    assert not out.exists()


def test_seed_rejected_where_nothing_is_random(tmp_path, capsys):
    data = synth_small(tmp_path)
    run_dir = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 4,
               "--iters", 2, "--anchors", 10, "--seed", 1, "--out", run_dir) == 0
    encode = ("encode", "--model", run_dir / "model.eshm", "--features", data / "features.csv")
    assert run(*encode, "--out", tmp_path / "enc") == 0
    for argv in (encode, ("query",), ("eval",)):
        out = tmp_path / f"{argv[0]}_seed"
        assert run(*argv, "--seed", 1, "--out", out) == 1
        err = json.loads(capsys.readouterr().err)
        assert "--seed" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("train", "--bits", "abc"),
    ("train", "--algo", "esh3"),
    ("train", "--alpha", "big"),
    ("eval", "--precision-at", "100,x"),
    ("encode", "--no-such-flag"),
    ("tran", "--bits", "4"),
    (),
])
def test_bad_command_line_is_a_one_line_json_error(capsys, argv):
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert set(json.loads(captured.err)) == {"error", "message"}


@pytest.mark.parametrize("flag", ["--eta", "--tau0", "--alpha"])
def test_train_rejects_non_finite_step_sizes_before_writing(tmp_path, capsys, flag):
    data = synth_small(tmp_path)
    out = tmp_path / "run"
    assert run("train", "--features", data / "features.csv", "--bits", 4, "--iters", 3,
               "--anchors", 10, flag, "nan", "--out", out) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "must be finite" in err["message"]
    assert not (out / "model.eshm").exists()


def test_help_prints_usage_and_exits_zero(capsys):
    for argv in (["--help"], ["train", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: esh")


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```\n")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"esh"}
    assert {argv[1] for argv in commands} == {"synth", "train", "encode", "query", "eval"}
    for argv in commands:
        assert main(argv[1:]) == 0, argv


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_encode_and_query_reject_non_finite_after_standardization(tmp_path, capsys):
    # a finite 1e308 over a column of std 0.01 standardizes to inf, in both modes
    rng = np.random.default_rng(3)
    X = rng.standard_normal((80, 4)) * [1.0, 1.0, 1.0, 0.01]
    train_csv, bad_csv = tmp_path / "train.csv", tmp_path / "bad.csv"
    save_features(X, train_csv)
    bad = X[:3].copy()
    bad[1, 3] = 1e308
    save_features(bad, bad_csv)
    run_dir = tmp_path / "run"
    assert run("train", "--features", train_csv, "--bits", 4, "--iters", 3,
               "--anchors", 10, "--seed", 1, "--out", run_dir) == 0
    enc = tmp_path / "enc"
    assert run("encode", "--model", run_dir / "model.eshm",
               "--features", train_csv, "--out", enc) == 0
    model = run_dir / "model.eshm"
    for mode in ("linear", "graph"):
        for argv in (("encode", "--model", model, "--features", bad_csv),
                     ("query", "--model", model, "--features", bad_csv,
                      "--db-codes", enc / "codes.eshb")):
            out = tmp_path / f"{argv[0]}_{mode}"
            assert run(*argv, "--query-mode", mode, "--out", out) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert "non-finite" in err["message"]
            assert not any(out.iterdir())


def test_train_on_a_constant_column_and_encode_without_it(tmp_path):
    # 0.1 is not float32-exact: a stored mean that misses it must not matter
    data = synth_small(tmp_path, clusters=3, per_cluster=20)
    X = load_features(data / "features.csv")
    X[:, 2] = 0.1
    train_csv = tmp_path / "train.csv"
    save_features(X, train_csv)
    run_dir = tmp_path / "run"
    assert run("train", "--features", train_csv, "--bits", 8, "--iters", 20,
               "--anchors", 15, "--seed", 2, "--out", run_dir) == 0
    model = load_model(run_dir / "model.eshm")
    codes = model.encode(X, mode="linear")
    assert np.unique(codes.words, axis=0).shape[0] > 1
    moved = X.copy()
    moved[:, 2] = np.linspace(-50.0, 50.0, X.shape[0])
    assert np.array_equal(model.encode(moved, mode="linear").words, codes.words)


def test_train_holds_its_rows_once(tmp_path):
    # n >> d: a float64 copy of the rows, whole, would dwarf what training
    # holds besides them (Z, n x k signs, blocks of BLOCK_VALUES entries)
    n, d = 60_000, 64
    rng = np.random.default_rng(11)
    features = tmp_path / "rows.eshf"
    save_features(rng.standard_normal((n, d)) * 3.0 + 1.0, features)
    tracemalloc.start()
    try:
        assert run("train", "--features", features, "--bits", 8, "--iters", 5,
                   "--anchors", 16, "--kmeans-iters", 3, "--out", tmp_path / "run") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    loaded = n * d * 4  # the float32 rows as load_features returns them
    assert peak - loaded < n * d * 8, f"peak {peak / 2**20:.1f} MiB"


def multi_block_files(tmp_path):
    """A model on 300 dims and 1200 rows of 300 values, as .eshf and as CSV.

    A block holds 2**18 values: 873 rows in linear mode and, with the model's
    20 anchors, 819 rows in graph mode, so each file is read in two blocks."""
    data = tmp_path / "data"
    assert run("synth", "--clusters", 3, "--per-cluster", 400, "--dims", 300,
               "--format", "binary", "--seed", 4, "--out", data) == 0
    binary, text = data / "features.eshf", data / "features.csv"
    save_features(load_features(binary), text)
    run_dir = tmp_path / "run"
    assert run("train", "--features", binary, "--bits", 16, "--iters", 5,
               "--anchors", 20, "--seed", 1, "--out", run_dir) == 0
    return run_dir / "model.eshm", binary, text


@pytest.mark.parametrize("fmt", ["eshf", "csv"])
def test_encode_and_query_of_a_file_equal_the_api_on_its_rows(tmp_path, fmt):
    model_path, binary, text = multi_block_files(tmp_path)
    features = binary if fmt == "eshf" else text
    model = load_model(model_path)
    X = load_features(features)
    db_dir = tmp_path / "db"
    assert run("encode", "--model", model_path, "--features", binary, "--out", db_dir) == 0
    db = load_codes(db_dir / "codes.eshb")
    for mode in ("linear", "graph"):
        want = model.encode(X, mode)
        enc, q = tmp_path / f"enc_{mode}", tmp_path / f"q_{mode}"
        assert run("encode", "--model", model_path, "--features", features,
                   "--query-mode", mode, "--out", enc) == 0
        got = load_codes(enc / "codes.eshb")
        assert (got.n, got.k) == (want.n, want.k)
        assert np.array_equal(got.words, want.words)
        assert run("query", "--model", model_path, "--features", features,
                   "--db-codes", db_dir / "codes.eshb", "--top", 5,
                   "--query-mode", mode, "--out", q) == 0
        assert (q / "results.csv").read_bytes() == per_row_results_csv(want, db, 5)


def test_bad_rows_in_a_late_block_fail_before_anything_is_written(tmp_path, capsys):
    model_path, binary, text = multi_block_files(tmp_path)
    payload_bytes = 1200 * 300 * 4
    data = binary.read_bytes()
    cases = []
    truncated = tmp_path / "truncated.eshf"
    truncated.write_bytes(data[:-5])
    cases.append((truncated, f"{truncated}: truncated payload: needs {payload_bytes} bytes, "
                             f"{payload_bytes - 5} left"))
    trailing = tmp_path / "trailing.eshf"
    trailing.write_bytes(data + b"\0\0")
    cases.append((trailing, f"{trailing}: 2 unexpected trailing bytes"))
    # row 1100 lies in the second block in either mode
    late = tmp_path / "late.eshf"
    body = bytearray(data)
    at = len(data) - payload_bytes + (1100 * 300 + 7) * 4
    body[at : at + 4] = np.array([np.nan], "<f4").tobytes()
    late.write_bytes(bytes(body))
    cases.append((late, f"{late}: non-finite value at row 1100, column 7"))
    lines = text.read_text().splitlines(keepends=True)
    for name, value, message in (
        ("late_inf.csv", "inf", "{path}: non-finite value at row 1100, column 7"),
        ("late_token.csv", "x", "CSV parse failure in {path}: could not convert string 'x' "
                                "to float64 at row 1100, column 8."),
    ):
        path = tmp_path / name
        row = lines[1100].split(",")
        row[7] = value
        path.write_text("".join(lines[:1100] + [",".join(row)] + lines[1101:]))
        cases.append((path, message.format(path=path)))
    enc = tmp_path / "enc"
    assert run("encode", "--model", model_path, "--features", binary, "--out", enc) == 0
    for path, message in cases:
        for mode in ("linear", "graph"):
            for argv in (("encode", "--model", model_path, "--features", path),
                         ("query", "--model", model_path, "--features", path,
                          "--db-codes", enc / "codes.eshb")):
                out = tmp_path / f"{path.stem}_{argv[0]}_{mode}"
                assert run(*argv, "--query-mode", mode, "--out", out) == 1
                assert json.loads(capsys.readouterr().err) == {"error": "FormatError",
                                                               "message": message}
                assert not any(out.iterdir())


def test_encode_and_query_hold_one_block_of_rows(tmp_path):
    # 16 000 rows of 256 float32 values: a 16.4 MB payload, read in blocks of
    # 1024 rows (1 MiB) in linear mode and 936 rows in graph mode (16 anchors).
    # A command that held the whole file would peak above the payload.
    n, d = 16_000, 256
    rng = np.random.default_rng(12)
    train_file, features = tmp_path / "train.eshf", tmp_path / "rows.eshf"
    save_features(rng.standard_normal((400, d)), train_file)
    save_features(rng.standard_normal((n, d), dtype=np.float32), features)
    run_dir = tmp_path / "run"
    assert run("train", "--features", train_file, "--bits", 16, "--iters", 3,
               "--anchors", 16, "--out", run_dir) == 0
    model = run_dir / "model.eshm"
    assert run("encode", "--model", model, "--features", train_file, "--out", tmp_path / "db") == 0
    payload = n * d * 4
    for mode in ("linear", "graph"):
        for argv in (("encode", "--model", model, "--features", features),
                     ("query", "--model", model, "--features", features,
                      "--db-codes", tmp_path / "db" / "codes.eshb", "--top", 1)):
            tracemalloc.start()
            try:
                assert run(*argv, "--query-mode", mode, "--out", tmp_path / f"{argv[0]}_{mode}") == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < payload / 2, f"{argv[0]} {mode}: peak {peak / 2**20:.1f} MiB"


def test_train_holds_one_standardized_copy_of_its_rows(tmp_path):
    # n x d float32 rows, R = 20.5 MB. Besides them training holds a few
    # float64 blocks of BLOCK_VALUES values (2 MiB each), Z (n x 3 int64 and
    # float64, 1 MB), n x 8 signs and projections, and d x d matrices
    # (0.5 MiB each): well under R / 2. So one copy of the rows peaks below
    # 1.5 R, and a second copy (raw and standardized rows, say) alone
    # makes 2 R.
    n, d = 20_000, 256
    features = tmp_path / "rows.eshf"
    save_features(np.random.default_rng(13).standard_normal((n, d), dtype=np.float32) * 3.0 + 1.0,
                  features)
    tracemalloc.start()
    try:
        assert run("train", "--features", features, "--bits", 8, "--iters", 3,
                   "--anchors", 8, "--kmeans-iters", 2, "--out", tmp_path / "run") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = n * d * 4
    assert peak < 1.5 * rows, f"peak {peak / rows:.2f} R"


@pytest.mark.parametrize("fmt", ["csv", "eshf"])
@pytest.mark.parametrize("change", ["replaced", "fewer_rows"])
def test_train_refuses_features_that_change_while_it_runs(tmp_path, capsys, monkeypatch, fmt,
                                                          change):
    # esh train reads its features twice; a file rewritten between the reads
    # would give the vote matrix other rows than training saw
    X = np.random.default_rng(14).standard_normal((120, 8))
    path = tmp_path / f"f.{fmt}"
    save_features(X, path)
    real_train = esh_cli.train

    def train_then_change_the_file(*args, **kwargs):
        if change == "replaced":  # same shape, other rows, a new file
            save_features(X[::-1], tmp_path / f"new.{fmt}")
            (tmp_path / f"new.{fmt}").replace(path)
        else:  # rewritten in place
            save_features(X[:-1], path)
        return real_train(*args, **kwargs)

    monkeypatch.setattr("esh.cli.train", train_then_change_the_file)
    out = tmp_path / "run"
    assert run("train", "--features", path, "--bits", 4, "--iters", 2, "--anchors", 10,
               "--out", out) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "FormatError", "message": f"{path}: file changed since it was opened"}
    assert not (out / "model.eshm").exists()
