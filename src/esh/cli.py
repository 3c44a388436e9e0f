"""Command line pipeline: synth, train, encode, query, eval.

Every subcommand reads options from an optional JSON config file plus
flags; flags win. One table per command declares each option once, and
the flags, the config-file checks and the required inputs all come from
it. Each artifact gets a sidecar manifest carrying the resolved config
and its hash. Manifests are provenance records only: no subcommand reads
them, so nothing checks that the codes and model given to a command come
from the same run. All randomness flows from the single --seed value.

Commands hold only the rows their algorithm needs at once. `esh encode`
and `esh query` encode their feature file as it is read, a block of rows
at a time, and write nothing if a block fails its checks. `esh train`
standardizes the rows it loads in place, so that one copy is all it
holds through anchors and training; it then reads the file a second
time, a block at a time, for the training codes the vote matrix needs,
and fails if the file changed in between. A CSV file is parsed whole
each time it is read.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .anchor_graph import (
    check_sigma2,
    fit_anchor_graph,
    similarity_factor,
)
from .dataset import (
    FeatureFile,
    generate_synthetic,
    load_features,
    load_labels,
    save_features,
    save_labels,
    standardize,
)
from .encoder import (
    QUERY_MODES,
    build_hash_model,
    load_codes,
    load_model,
    save_codes,
    save_model,
)
from .evaluation import GroundTruth, evaluate, rank_database
from .optimizer import TrainConfig, train

PATH = "path"  # an input file that must exist
SWITCH = "switch"  # a flag that takes no value; true or false in a config file
# results.csv rows that esh query formats in one write; bounds the Python
# ints a write holds
QUERY_BLOCK_ROWS = 2**16


class Opt(NamedTuple):
    """One option of one command: flag --some-name, config key some_name.

    `kind` is int, float, PATH, SWITCH, a tuple of choices, or a parser that
    takes the flag's string or the config file's JSON value.
    """

    name: str
    default: object
    kind: object
    required: bool = False
    help: str | None = None

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")


# argparse quotes a parser's name when it rejects a flag's value
# ("invalid alpha value: 'x'"), so the parsers have short plain names
def alpha(value):
    """'auto' or a number."""
    if value == "auto":
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"must be 'auto' or a number, got {json.dumps(value)}")
    return float(value)


def depths(value):
    """Precision depths: a list of ints or a string such as "100,300"."""
    if isinstance(value, str):
        return [int(tok) for tok in value.split(",") if tok]
    # bool is a subclass of int, so compare types exactly
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise TypeError(f"must be a list of ints or a string, got {json.dumps(value)}")
    return value


# entry order is the flag order in --help
SYNTH = (
    Opt("seed", 0, int),
    Opt("clusters", 10, int),
    Opt("per_cluster", 500, int),
    Opt("dims", 32, int),
    Opt("spread", 1.0, float),
    Opt("format", "csv", ("csv", "binary")),
)

TRAIN = (
    Opt("seed", 0, int),
    Opt("features", None, PATH, required=True),
    Opt("bits", 16, int),
    Opt("algo", "esh2", ("esh1", "esh2")),
    Opt("iters", 300, int),
    Opt("eta", 0.01, float),
    Opt("alpha", "auto", alpha, help="'auto' or a nonnegative number"),
    Opt("anchors", 300, int),
    Opt("snn", 3, int, help="nearest anchors kept per sample"),
    Opt("sigma2", None, float),
    Opt("tau0", 0.01, float),
    Opt("kmeans_iters", 10, int),
    Opt("query_mode", "graph", QUERY_MODES),
)

ENCODE = (
    Opt("model", None, PATH, required=True),
    Opt("features", None, PATH, required=True),
    # database encoding is the plain sign of the projection; pass
    # --query-mode graph to push features through the anchor vote instead
    Opt("query_mode", "linear", QUERY_MODES),
)

QUERY = (
    Opt("model", None, PATH, required=True),
    Opt("features", None, PATH, required=True),
    Opt("db_codes", None, PATH, required=True),
    Opt("top", 10, int),
    Opt("query_mode", None, QUERY_MODES),  # None = whatever the model says
)

EVAL = (
    Opt("query_codes", None, PATH, required=True),
    Opt("db_codes", None, PATH, required=True),
    Opt("query_labels", None, PATH, required=True),
    Opt("labels", None, PATH, required=True, help="database labels"),
    Opt("precision_at", [300], depths, help="comma-separated depths, e.g. 100,300"),
    Opt("radius", 2, int),
    Opt("cutoff", None, int, help="rank cutoff for AP (default: full ranking)"),
    Opt("exclude_self", False, SWITCH, help="drop database item i from query i's ranking"),
    Opt("skip_empty", False, SWITCH,
        help="drop queries with no relevant item instead of scoring 0"),
)

COMMANDS = {
    "synth": ("generate Gaussian blob features + labels", SYNTH),
    "train": ("train a hash model on a feature file", TRAIN),
    "encode": ("encode a feature file with a trained model", ENCODE),
    "query": ("rank database codes for query features", QUERY),
    "eval": ("score query codes against a labeled database", EVAL),
}

# JSON types a config value of each plain kind may take; bool is a subclass
# of int, yet true/false is only a value for a switch
_JSON_TYPES = {int: (int,), float: (int, float), PATH: (str,), SWITCH: (bool,)}


def _config_value(opt, value):
    """A config-file value, put through the checks its flag gets.

    Numbers keep their JSON type, so {"eta": 1} is recorded as 1; only a
    parser kind converts.
    """
    if value is None and opt.default is None:
        return value
    if isinstance(opt.kind, tuple):
        allowed = (str,)
    elif opt.kind in _JSON_TYPES:
        allowed = _JSON_TYPES[opt.kind]
    else:
        try:
            return opt.kind(value)
        except TypeError as e:
            raise TypeError(f"config key {opt.name!r} {e}") from None
    if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
        names = " or ".join(t.__name__ for t in allowed)
        raise TypeError(f"config key {opt.name!r} must be {names}, got {json.dumps(value)}")
    if isinstance(opt.kind, tuple) and value not in opt.kind:
        raise ValueError(f"config key {opt.name!r} must be one of {', '.join(opt.kind)}, "
                         f"got {json.dumps(value)}")
    return value


def _resolve(args, table):
    """Merge flag values over config-file values over the table's defaults."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                file_cfg = json.load(f)
        except ValueError as e:  # undecodable bytes or malformed JSON
            raise ValueError(f"config file {args.config}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise TypeError(f"config file {args.config} must hold a JSON object, "
                            f"got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - {opt.name for opt in table}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        file_cfg = {opt.name: _config_value(opt, file_cfg[opt.name])
                    for opt in table if opt.name in file_cfg}
    out = {}
    for opt in table:
        flag = getattr(args, opt.name)
        value = out[opt.name] = flag if flag is not None else file_cfg.get(opt.name, opt.default)
        if opt.required and value is None:
            raise ValueError(f"missing required option {opt.flag}")
        if opt.kind is PATH and value is not None and not Path(value).is_file():
            raise FileNotFoundError(f"{opt.flag}: no such file: {value}")
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


def _sub_seeds(seed, count):
    # independent streams for k-means and W init, all derived from one seed
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def cmd_synth(args):
    cfg = _resolve(args, SYNTH)
    out = _out_dir(args)
    X, labels = generate_synthetic(
        clusters=cfg["clusters"],
        per_cluster=cfg["per_cluster"],
        dims=cfg["dims"],
        spread=float(cfg["spread"]),
        seed=cfg["seed"],
    )
    feat_path = out / ("features.eshf" if cfg["format"] == "binary" else "features.csv")
    label_path = out / "labels.csv"
    save_features(X, feat_path)
    save_labels(labels, label_path)
    _write_manifest(feat_path, "synth", cfg)
    _write_manifest(label_path, "synth", cfg)
    print(f"wrote {feat_path} ({X.shape[0]} samples, {X.shape[1]} dims)")
    print(f"wrote {label_path} ({cfg['clusters']} classes)")
    return 0


def cmd_train(args):
    cfg = _resolve(args, TRAIN)
    kmeans_seed, w_seed = _sub_seeds(cfg["seed"], 2)
    # check every option before the anchor graph and training spend time
    tc = TrainConfig(
        bits=cfg["bits"],
        iters=cfg["iters"],
        algorithm=cfg["algo"],
        eta=float(cfg["eta"]),
        alpha=cfg["alpha"],
        tau0=float(cfg["tau0"]),
        seed=w_seed,
    )
    if cfg["sigma2"] is not None:
        check_sigma2(cfg["sigma2"])
    if cfg["snn"] < 1:
        raise ValueError(f"--snn must be >= 1, got {cfg['snn']}")
    if cfg["snn"] > cfg["anchors"]:
        raise ValueError(f"--snn must be at most --anchors ({cfg['anchors']}), got {cfg['snn']}")
    # opened before the rows are read, so the second read below fails
    # unless the file is the one training read
    features = FeatureFile(cfg["features"])
    X = load_features(cfg["features"])
    if cfg["bits"] > X.shape[1]:
        raise ValueError(f"--bits must be at most the {X.shape[1]} feature dimensions, "
                         f"got {cfg['bits']}")
    out = _out_dir(args)

    # the one copy of the rows that training holds, at the input's precision
    Xs, stats = standardize(X, in_place=True)
    anchors, Z = fit_anchor_graph(
        Xs,
        cfg["anchors"],
        iters=cfg["kmeans_iters"],
        seed=kmeans_seed,
        s=cfg["snn"],
        sigma2=cfg["sigma2"],
    )
    K = similarity_factor(Xs, Z)

    W, trace = train(Xs, K, tc)
    # the training codes take the raw rows, read again a block at a time
    del X, Xs, K
    model, _codes = build_hash_model(stats, W, anchors, Z, features, query_mode=cfg["query_mode"])

    model_path = out / "model.eshm"
    trace_path = out / "trace.csv"
    save_model(model, model_path)
    trace.to_csv(trace_path)
    _write_manifest(model_path, "train", cfg)
    _write_manifest(trace_path, "train", cfg)
    print(f"wrote {model_path} ({model.d} dims, {model.k} bits, {model.m} anchors)")
    print(f"wrote {trace_path} ({len(trace.iteration)} iterations)")
    print(f"alpha={trace.alpha:.6g} loss: {trace.initial_loss:.6g} -> {trace.loss[-1]:.6g}")
    return 0


def cmd_encode(args):
    cfg = _resolve(args, ENCODE)
    out = _out_dir(args)
    model = load_model(cfg["model"])
    codes = model.encode(FeatureFile(cfg["features"]), mode=cfg["query_mode"])
    codes_path = out / "codes.eshb"
    save_codes(codes, codes_path)
    _write_manifest(codes_path, "encode", cfg)
    print(f"wrote {codes_path} ({codes.n} codes, {codes.k} bits, {cfg['query_mode']} mode)")
    return 0


def cmd_query(args):
    cfg = _resolve(args, QUERY)
    if cfg["top"] < 1:
        raise ValueError(f"--top must be >= 1, got {cfg['top']}")
    out = _out_dir(args)
    model = load_model(cfg["model"])
    db = load_codes(cfg["db_codes"])
    if db.k != model.k:
        raise ValueError(f"database codes have {db.k} bits, model produces {model.k}")
    mode = cfg["query_mode"] if cfg["query_mode"] is not None else model.query_mode
    codes = model.encode(FeatureFile(cfg["features"]), mode=mode)
    top = min(cfg["top"], db.n)
    results_path = out / "results.csv"
    # rows of query_id, rank, db_id, distance; one formatted write per block
    block = max(1, QUERY_BLOCK_ROWS // top)
    with open(results_path, "w") as f:
        f.write("query_id,rank,db_id,distance\n")
        for q0 in range(0, codes.n, block):
            qids = np.arange(q0, min(q0 + block, codes.n))
            rows = np.empty((qids.size, top, 4), dtype=np.int64)
            rows[:, :, 0] = qids[:, None]
            rows[:, :, 1] = np.arange(1, top + 1)
            for j, qi in enumerate(qids.tolist()):
                ranking = rank_database(codes.words[qi], db, top=top)
                rows[j, :, 2] = ranking.ids
                rows[j, :, 3] = ranking.distances
            f.write("%d,%d,%d,%d\n" * (qids.size * top) % tuple(rows.ravel().tolist()))
    _write_manifest(results_path, "query", cfg)
    print(f"wrote {results_path} ({codes.n} queries, top {top}, {mode} mode)")
    return 0


def cmd_eval(args):
    cfg = _resolve(args, EVAL)
    out = _out_dir(args)
    q_codes = load_codes(cfg["query_codes"])
    db_codes = load_codes(cfg["db_codes"])
    gt = GroundTruth(load_labels(cfg["query_labels"]), load_labels(cfg["labels"]))
    report = evaluate(
        q_codes,
        db_codes,
        gt,
        depths=cfg["precision_at"],
        radius=cfg["radius"],
        exclude_self=cfg["exclude_self"],
        cutoff=cfg["cutoff"],
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


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, so that main reports it like any other failure."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    ap = _Parser(
        prog="esh",
        description="Learn binary hash codes, encode vectors, and score retrieval.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, table) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory (default: current)")
        for opt in table:
            if opt.kind is SWITCH:
                p.add_argument(opt.flag, action="store_const", const=True, help=opt.help)
            elif isinstance(opt.kind, tuple):
                p.add_argument(opt.flag, choices=opt.kind, help=opt.help)
            else:
                p.add_argument(opt.flag, type=None if opt.kind is PATH else opt.kind, help=opt.help)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # looked up at call time, so a wrapper set on this module is the one called
        return globals()[f"cmd_{args.command}"](args)
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
