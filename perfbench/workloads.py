"""The benchmark's workloads and how their inputs are made.

Every input comes from ``esh.dataset.generate_synthetic`` with the seed the
benchmark is given; a seeded permutation splits the rows into database and
held-out queries. esh only ever sees the files written here.

Each workload runs the same pipeline (train, encode the database, answer
queries one at a time and as a batch, score with ``esh eval``); the sizes
decide which layer dominates:

* ``train_highd``: d = 1024 makes the d x d Cayley solve most of training;
  the n-sized XW / X^T R products are most of the rest.
* ``serve``: a 30k-code database, so ranking and metrics dominate; the
  model is trained during set-up (with ``esh1``, the projected-gradient
  path) and is not part of the measured phase.
"""

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from esh import cli
from esh.dataset import LabelSet, generate_synthetic, save_features, save_labels

# esh train sees a uniform subsample of the database: enough rows for the
# n-sized work to stay in the profile, few enough that a run repeats it
TRAIN_ROWS = 5000
# `esh encode` passes over the database per repeat of the query-side steps
ENCODE_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    clusters: int
    per_cluster: int
    dims: int
    spread: float
    queries: int
    train_flags: tuple  # esh train flags besides --features/--out/--seed
    round_s: float  # seconds one measured round takes on the 2-core reference host
    train_in_setup: bool = False  # train once per set-up instead of in the measured phase
    query_reps: int = 1  # times the query-side steps repeat per round
    eval_threads: int = 1  # ESH_THREADS for `esh eval`; 0 means one per core
    setup_reps: int = 7  # set-ups per run; setup_s is their median

    def rounds(self, seconds):
        """Rounds that fill `seconds` on the reference host: at least two,
        so every time has repeats, and fixed for a given --seconds so that
        every run does the same work."""
        return max(2, int(seconds // self.round_s))

    @property
    def n_db(self):
        return self.clusters * self.per_cluster - self.queries

    def array_bytes(self):
        """Bytes of the largest arrays esh holds for this workload (float64
        features, the n x m distance and argsort arrays of the anchor graph,
        the n x k projections, packed codes)."""
        flags = dict(zip(self.train_flags[::2], self.train_flags[1::2]))
        k, m = int(flags["--bits"]), int(flags["--anchors"])
        n_train = min(TRAIN_ROWS, self.n_db)
        return {
            "db_features_f64": self.n_db * self.dims * 8,
            "train_distances_and_argsort": 2 * n_train * m * 8,
            "db_projection_f64": self.n_db * k * 8,
            "db_codes": self.n_db * ((k + 63) // 64) * 8,
            "query_features_f64": self.queries * self.dims * 8,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_highd",
            clusters=20, per_cluster=650, dims=1024, spread=1.5, queries=1000,
            train_flags=("--algo", "esh2", "--bits", "64", "--anchors", "100",
                         "--snn", "3", "--iters", "40"),
            # the 12k-code database makes ranking, not per-query
            # interpreter overhead, the bulk of a lookup
            round_s=19.5, query_reps=3,
        ),
        Workload(
            name="serve",
            clusters=50, per_cluster=620, dims=128, spread=2.0, queries=1000,
            train_flags=("--algo", "esh1", "--bits", "64", "--anchors", "300",
                         "--snn", "3", "--iters", "100"),
            round_s=6.0,
            train_in_setup=True,
            setup_reps=6,
            # the thread pool only pays off when ranking dominates; on the
            # small train databases two threads mostly contend for the GIL
            eval_threads=0,
        ),
    )
}


def input_paths(data_dir):
    data_dir = Path(data_dir)
    return {
        "db": data_dir / "db.eshf",
        "db_labels": data_dir / "db_labels.csv",
        "queries": data_dir / "queries.eshf",
        "query_labels": data_dir / "query_labels.csv",
        "train": data_dir / "train.eshf",
    }


def write_inputs(wl: Workload, seed, data_dir):
    """Generate the workload's data and write the files esh reads."""
    paths = input_paths(data_dir)
    Path(data_dir).mkdir(parents=True, exist_ok=True)
    X, labels = generate_synthetic(wl.clusters, wl.per_cluster, wl.dims, wl.spread, seed)
    ids = labels.single_array()
    perm = np.random.default_rng([seed, 1]).permutation(X.shape[0])
    q, db = perm[: wl.queries], perm[wl.queries:]
    save_features(X[db], paths["db"])
    save_labels(LabelSet.from_array(ids[db]), paths["db_labels"])
    save_features(X[q], paths["queries"])
    save_labels(LabelSet.from_array(ids[q]), paths["query_labels"])
    # db is already a random order, so its head is a uniform subsample
    save_features(X[db[:TRAIN_ROWS]], paths["train"])
    return paths


def train_argv(wl: Workload, seed, features, out_dir):
    return ["train", "--features", str(features), "--out", str(out_dir),
            "--seed", str(seed), *wl.train_flags]


@dataclass
class Operations:
    """Counts attempted and failed operations: esh commands, queries, checks."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {detail}")

    def merge(self, doc):
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.errors.extend(doc["errors"])


def run_cli(argv, ops, label):
    """Run one esh command in-process; returns its wall seconds.

    The command's stdout is discarded; a non-zero exit counts as a failed
    operation in `ops`.
    """
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    ops.record(label, code == 0, f"exit code {code}")
    return elapsed
