"""Command line pipeline: synth, train, encode, query, eval.

Every subcommand reads options from an optional JSON config file plus
flags; flags win. Each artifact gets a sidecar manifest carrying the
resolved config and its hash, so artifacts from different runs cannot be
mixed up silently. All randomness flows from the single --seed value.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .anchor_graph import (
    build_affinity_rows,
    fit_anchors,
    prune_dead_anchors,
    similarity_matrix,
)
from .dataset import (
    generate_synthetic,
    load_features,
    load_labels,
    save_features,
    save_labels,
    standardize,
)
from .encoder import build_hash_model, load_codes, load_model, save_codes, save_model
from .evaluation import GroundTruth, evaluate, rank_database
from .optimizer import TrainConfig, train

SYNTH_DEFAULTS = {
    "clusters": 10,
    "per_cluster": 500,
    "dims": 32,
    "spread": 1.0,
    "seed": 0,
    "format": "csv",
}

TRAIN_DEFAULTS = {
    "features": None,
    "bits": 16,
    "algo": "esh2",
    "iters": 300,
    "eta": 0.01,
    "alpha": "auto",
    "anchors": 300,
    "snn": 3,
    "sigma2": None,
    "tau0": 0.01,
    "seed": 0,
    "kmeans_iters": 10,
    "query_mode": "graph",
    "retain_train": False,
}

ENCODE_DEFAULTS = {
    "model": None,
    "features": None,
    # database encoding is the plain sign of the projection; pass
    # --query-mode graph to push features through the anchor vote instead
    "query_mode": "linear",
}

QUERY_DEFAULTS = {
    "model": None,
    "features": None,
    "db_codes": None,
    "top": 10,
    "query_mode": None,  # None = whatever the model says
}

EVAL_DEFAULTS = {
    "query_codes": None,
    "db_codes": None,
    "query_labels": None,
    "labels": None,
    "precision_at": [300],
    "radius": 2,
    "cutoff": None,
    "exclude_self": False,
    "skip_empty": False,
}


# JSON types a config-file value may take where its default does not say:
# numeric options that default to None and options with more than one form.
# Any other option that defaults to None takes a string (a path or a mode).
_CONFIG_TYPES = {
    "alpha": (str, int, float),  # "auto" or a number
    "sigma2": (int, float),
    "cutoff": (int,),
    "precision_at": (list, str),  # [100, 300] or "100,300"
}


def _check_config_type(key, value, default):
    """Config-file values skip argparse, so check them against the defaults."""
    if value is None and default is None:
        return
    if key in _CONFIG_TYPES:
        allowed = _CONFIG_TYPES[key]
    elif default is None:
        allowed = (str,)
    elif isinstance(default, float):
        allowed = (int, float)
    else:
        allowed = (type(default),)
    # bool is a subclass of int, yet true/false is only a value for a switch
    if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
        names = " or ".join(t.__name__ for t in allowed)
        raise TypeError(f"config key {key!r} must be {names}, got {json.dumps(value)}")


def _resolve(args, defaults, required=()):
    """Merge flag values over config-file values over built-in defaults."""
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            file_cfg = json.load(f)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            _check_config_type(key, value, defaults[key])
    out = {}
    for key, builtin in defaults.items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else file_cfg.get(key, builtin)
    for key in required:
        if out[key] is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return out


def _config_hash(resolved):
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(artifact: Path, command, resolved):
    doc = {
        "artifact": artifact.name,
        "command": command,
        "config": resolved,
        "config_sha256": _config_hash(resolved),
    }
    with open(str(artifact) + ".manifest.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _out_dir(args):
    out = Path(args.out if args.out is not None else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_files(**paths):
    for name, p in paths.items():
        if p is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        if not Path(p).is_file():
            raise FileNotFoundError(f"--{name.replace('_', '-')}: no such file: {p}")


def _sub_seeds(seed, count):
    # independent streams for k-means and W init, all derived from one seed
    return [int(v) for v in np.random.SeedSequence(int(seed)).generate_state(count)]


def _parse_alpha(value):
    if value is None or value == "auto":
        return value
    return float(value)


def _parse_depths(value):
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(tok) for tok in str(value).split(",") if tok]


def cmd_synth(args):
    cfg = _resolve(args, SYNTH_DEFAULTS)
    out = _out_dir(args)
    X, labels = generate_synthetic(
        clusters=int(cfg["clusters"]),
        per_cluster=int(cfg["per_cluster"]),
        dims=int(cfg["dims"]),
        spread=float(cfg["spread"]),
        seed=int(cfg["seed"]),
    )
    feat_path = out / ("features.eshf" if cfg["format"] == "binary" else "features.csv")
    label_path = out / "labels.csv"
    save_features(X, feat_path, fmt=cfg["format"])
    save_labels(labels, label_path)
    _write_manifest(feat_path, "synth", cfg)
    _write_manifest(label_path, "synth", cfg)
    print(f"wrote {feat_path} ({X.shape[0]} samples, {X.shape[1]} dims)")
    print(f"wrote {label_path} ({cfg['clusters']} classes)")
    return 0


def cmd_train(args):
    cfg = _resolve(args, TRAIN_DEFAULTS, required=("features",))
    cfg["alpha"] = _parse_alpha(cfg["alpha"])
    _require_files(features=cfg["features"])
    out = _out_dir(args)

    X_raw = load_features(cfg["features"])
    Xs, stats = standardize(X_raw)
    kmeans_seed, w_seed = _sub_seeds(cfg["seed"], 2)
    anchors = fit_anchors(
        Xs,
        int(cfg["anchors"]),
        iters=int(cfg["kmeans_iters"]),
        seed=kmeans_seed,
        s=int(cfg["snn"]),
        sigma2=cfg["sigma2"],
    )
    Z = build_affinity_rows(Xs, anchors)
    anchors, Z, lam = prune_dead_anchors(Xs, anchors, Z)
    S = similarity_matrix(Xs, Z, lam)

    tc = TrainConfig(
        bits=int(cfg["bits"]),
        iters=int(cfg["iters"]),
        algorithm=cfg["algo"],
        eta=float(cfg["eta"]),
        alpha=cfg["alpha"],
        tau0=float(cfg["tau0"]),
        seed=w_seed,
    )
    W, trace = train(Xs, S, tc)
    model, _codes = build_hash_model(
        stats, W, anchors, Z, lam, X_raw,
        query_mode=cfg["query_mode"],
        retain_train=bool(cfg["retain_train"]),
    )

    model_path = out / "model.eshm"
    trace_path = out / "trace.csv"
    save_model(model, model_path)
    # timing column omitted so identical runs produce identical bytes
    trace.to_csv(trace_path, include_timing=False)
    _write_manifest(model_path, "train", cfg)
    _write_manifest(trace_path, "train", cfg)
    print(f"wrote {model_path} ({model.d} dims, {model.k} bits, {model.m} anchors)")
    print(f"wrote {trace_path} ({len(trace.iteration)} iterations)")
    print(f"alpha={trace.alpha:.6g} loss: {trace.initial_loss:.6g} -> {trace.loss[-1]:.6g}")
    return 0


def cmd_encode(args):
    cfg = _resolve(args, ENCODE_DEFAULTS, required=("model", "features"))
    _require_files(model=cfg["model"], features=cfg["features"])
    out = _out_dir(args)
    model = load_model(cfg["model"])
    X = load_features(cfg["features"])
    codes = model.encode(X, mode=cfg["query_mode"])
    codes_path = out / "codes.eshb"
    save_codes(codes, codes_path)
    _write_manifest(codes_path, "encode", cfg)
    print(f"wrote {codes_path} ({codes.n} codes, {codes.k} bits, {cfg['query_mode']} mode)")
    return 0


def cmd_query(args):
    cfg = _resolve(args, QUERY_DEFAULTS, required=("model", "features", "db_codes"))
    if int(cfg["top"]) < 1:
        raise ValueError(f"--top must be >= 1, got {cfg['top']}")
    _require_files(model=cfg["model"], features=cfg["features"], db_codes=cfg["db_codes"])
    out = _out_dir(args)
    model = load_model(cfg["model"])
    db = load_codes(cfg["db_codes"])
    if db.k != model.k:
        raise ValueError(f"database codes have {db.k} bits, model produces {model.k}")
    X = load_features(cfg["features"])
    mode = cfg["query_mode"] if cfg["query_mode"] is not None else model.query_mode
    codes = model.encode(X, mode=mode)
    top = min(int(cfg["top"]), db.n)
    results_path = out / "results.csv"
    row = "%d,%d,%d,%d\n" * top  # query_id, rank, db_id, distance
    with open(results_path, "w") as f:
        f.write("query_id,rank,db_id,distance\n")
        for qi in range(codes.n):
            ranking = rank_database(codes.words[qi], db, query_id=qi)
            cols = (np.full(top, qi), np.arange(1, top + 1), ranking.ids[:top], ranking.distances[:top])
            f.write(row % tuple(np.column_stack(cols).ravel().tolist()))
    _write_manifest(results_path, "query", cfg)
    print(f"wrote {results_path} ({codes.n} queries, top {top}, {mode} mode)")
    return 0


def cmd_eval(args):
    cfg = _resolve(
        args, EVAL_DEFAULTS,
        required=("query_codes", "db_codes", "query_labels", "labels"),
    )
    cfg["precision_at"] = _parse_depths(cfg["precision_at"])
    _require_files(
        query_codes=cfg["query_codes"],
        db_codes=cfg["db_codes"],
        query_labels=cfg["query_labels"],
        labels=cfg["labels"],
    )
    out = _out_dir(args)
    q_codes = load_codes(cfg["query_codes"])
    db_codes = load_codes(cfg["db_codes"])
    gt = GroundTruth(load_labels(cfg["query_labels"]), load_labels(cfg["labels"]))
    report = evaluate(
        q_codes,
        db_codes,
        gt,
        depths=cfg["precision_at"],
        radius=int(cfg["radius"]),
        exclude_self=bool(cfg["exclude_self"]),
        cutoff=None if cfg["cutoff"] is None else int(cfg["cutoff"]),
        count_empty=not cfg["skip_empty"],
    )
    report_path = out / "report.json"
    pr_path = out / "pr_curve.csv"
    report.to_json(report_path)
    report.pr_to_csv(pr_path)
    _write_manifest(report_path, "eval", cfg)
    _write_manifest(pr_path, "eval", cfg)
    pa = ", ".join(f"p@{n}={v:.4f}" for n, v in report.precision_at.items())
    print(f"wrote {report_path} and {pr_path}")
    print(f"mAP={report.map:.4f} macro-mAP={report.macro_map:.4f} {pa} "
          f"p@r{report.radius}={report.precision_at_radius:.4f}")
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory (default: current)")
    p.add_argument("--seed", type=int)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="esh",
        description="Learn binary hash codes, encode vectors, and score retrieval.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate Gaussian blob features + labels")
    _add_common(p)
    p.add_argument("--clusters", type=int)
    p.add_argument("--per-cluster", dest="per_cluster", type=int)
    p.add_argument("--dims", type=int)
    p.add_argument("--spread", type=float)
    p.add_argument("--format", choices=("csv", "binary"))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a hash model on a feature file")
    _add_common(p)
    p.add_argument("--features")
    p.add_argument("--bits", type=int)
    p.add_argument("--algo", choices=("esh1", "esh2"))
    p.add_argument("--iters", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--alpha", help="'auto' or a nonnegative number")
    p.add_argument("--anchors", type=int)
    p.add_argument("--snn", type=int, help="nearest anchors kept per sample")
    p.add_argument("--sigma2", type=float)
    p.add_argument("--tau0", type=float)
    p.add_argument("--kmeans-iters", dest="kmeans_iters", type=int)
    p.add_argument("--query-mode", dest="query_mode", choices=("graph", "linear"))
    p.add_argument("--retain-train", dest="retain_train",
                   action="store_const", const=True,
                   help="keep training codes and affinity rows inside the model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a feature file with a trained model")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--query-mode", dest="query_mode", choices=("graph", "linear"))
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("query", help="rank database codes for query features")
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--db-codes", dest="db_codes")
    p.add_argument("--top", type=int)
    p.add_argument("--query-mode", dest="query_mode", choices=("graph", "linear"))
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score query codes against a labeled database")
    _add_common(p)
    p.add_argument("--query-codes", dest="query_codes")
    p.add_argument("--db-codes", dest="db_codes")
    p.add_argument("--query-labels", dest="query_labels")
    p.add_argument("--labels", help="database labels")
    p.add_argument("--precision-at", dest="precision_at",
                   help="comma-separated depths, e.g. 100,300")
    p.add_argument("--radius", type=int)
    p.add_argument("--cutoff", type=int, help="rank cutoff for AP (default: full ranking)")
    p.add_argument("--exclude-self", dest="exclude_self",
                   action="store_const", const=True,
                   help="drop database item i from query i's ranking")
    p.add_argument("--skip-empty", dest="skip_empty",
                   action="store_const", const=True,
                   help="drop queries with no relevant item instead of scoring 0")
    p.set_defaults(func=cmd_eval)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
