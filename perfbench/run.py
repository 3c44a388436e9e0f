"""esh benchmark: time to a model, lookup latency and scoring throughput.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {train_highd,serve} \
        --seed N --seconds S --trace {0,1}

The set-up makes the workload's inputs from --seed (several times,
reporting the median set-up time). The measured phase then runs in a fresh process
(perfbench/measure.py) for about --seconds, driving esh only through
``esh.cli.main`` and the Python API. Afterwards the outputs are checked
against brute-force references (perfbench/reference.py).

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 runs every measured step once untraced and once traced, and
reports the per-layer metrics from the spans, plus the tracing overhead
(traced minus untraced, for each end-to-end metric).

Every metric is printed by name with its unit; the environment record
follows, and the last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread everywhere: on a shared 2-vCPU host a two-thread GEMM
# stalled up to 20x whenever the second vCPU was busy elsewhere, while
# single-threaded work moved by a few percent. Set before numpy loads, so
# it holds for set-up and, through the environment, for measure.py.
BLAS_THREADS = "1"
CHECK_QUERIES = 10
ORTH_TOL = 1e-10
# A run must end within RUN_LIMIT_S, or within SLOWDOWN times its nominal
# measured work if that is longer (a large --seconds). The measured phase
# stops starting blocks once it would run into the last CHECK_RESERVE_S,
# kept for the checks and the output, and is killed CHECK_RESERVE_S after
# that deadline. So an esh up to about 3x slower than today still reports
# its figures at the benchmark's own --seconds.
RUN_LIMIT_S = 165
SLOWDOWN = 4
CHECK_RESERVE_S = 20
OVERHEAD_METRICS = ("train_s", "peak_rss_mb", "encode_rows_per_s", "query_p50_ms",
                    "query_p99_ms", "query_batch_qps", "eval_qps")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def eval_threads(wl):
    return wl.eval_threads or len(os.sched_getaffinity(0))


def run_phase(spec, run_dir, wl, deadline_s):
    """Run measure.py for one measured phase and return its phase.json.

    The phase stops starting blocks after `deadline_s` seconds and is
    killed CHECK_RESERVE_S later.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps({**spec, "run_dir": str(run_dir), "deadline_s": deadline_s}))
    env = dict(os.environ, ESH_THREADS=str(eval_threads(wl)))
    with open(run_dir / "measure.log", "wb") as log:
        proc = subprocess.run([sys.executable, str(HERE / "measure.py"), str(spec_path)],
                              cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=max(deadline_s, 0) + CHECK_RESERVE_S, check=False)
    if proc.returncode != 0:
        tail = (run_dir / "measure.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"measured phase exited {proc.returncode}:\n{tail}")
    return json.loads((run_dir / "phase.json").read_text())


def latency_percentile(passes, q):
    """Median over the closed-loop passes of each pass's q-th percentile."""
    import numpy as np

    return statistics.median(float(np.percentile(p, q)) for p in passes)


def end_to_end(wl, phase, setup_s, train_setup_s):
    """End-to-end metrics of one measured phase.

    Each time is the median of its repeats, and each latency percentile the
    median over the passes of 1000 queries (each pass has 10 samples beyond
    its p99). Query latency is on-CPU time (see measure.closed_loop), so a
    neighbour's time slices on a shared host do not set the p99. Over ten
    seeds on a shared 2-vCPU guest, whose speed drifts from second to
    second, these medians spread less than the fastest repeat did (see
    perfbench/README.md). Repeat counts are fixed per
    workload, so two commits are compared on equal terms.
    """
    train = train_setup_s if wl.train_in_setup else phase["train_s"]
    return {
        "setup_s": statistics.median(setup_s),
        "train_s": statistics.median(train),
        "map": phase["map"][-1],
        "peak_rss_mb": phase["peak_rss_mb"],
        "encode_rows_per_s": wl.n_db / statistics.median(phase["encode_s"]),
        "query_p50_ms": latency_percentile(phase["latency_ms"], 50),
        "query_p99_ms": latency_percentile(phase["latency_ms"], 99),
        "query_batch_qps": wl.queries / statistics.median(phase["batch_s"]),
        "eval_qps": wl.queries / statistics.median(phase["eval_s"]),
    }


def check_outputs(wl, seed, paths, phase, run_dir, model_dirs, ops):
    """Compare esh's outputs with the brute-force references."""
    import numpy as np

    from esh import encoder, evaluation
    from esh.dataset import load_features, load_labels
    from reference import ap_matches, reference_ap, reference_ranking, topk_matches

    for d in model_dirs:
        trace = np.loadtxt(Path(d) / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        res = float(trace[-1, 2])
        ops.record("orth residual", res <= ORTH_TOL, f"{d}: final orth_residual {res!r}")
    for name in ("model.eshm", "trace.csv"):
        digests = {sha256(Path(d) / name) for d in model_dirs}
        ops.record("byte-identical retrain", len(digests) == 1, f"{len(digests)} distinct {name}")

    ops.record("eval repeats exactly", len(set(phase["map"])) == 1, f"mAP per round {phase['map']}")
    model = encoder.load_model(phase["model"])
    db = encoder.load_codes(run_dir / "db" / "codes.eshb")
    again = model.encode(load_features(paths["db"]), mode="linear")
    ops.record("reload re-encodes db", np.array_equal(again.words, db.words),
               "reloaded model encodes the database differently")

    loop = np.load(run_dir / "loop.npz")
    q_codes = encoder.load_codes(run_dir / "queries" / "codes.eshb")
    batch = np.loadtxt(run_dir / "batch" / "results.csv", delimiter=",", skiprows=1,
                       dtype=np.int64, ndmin=2)
    db_labels = np.loadtxt(paths["db_labels"], dtype=np.int64, ndmin=1)
    q_labels = np.loadtxt(paths["query_labels"], dtype=np.int64, ndmin=1)
    gt = evaluation.GroundTruth(load_labels(paths["query_labels"]), load_labels(paths["db_labels"]))
    sample = np.random.default_rng([seed, 2]).choice(wl.queries, CHECK_QUERIES, replace=False)
    for qi in sample.tolist():
        ids, dist = reference_ranking(loop["q_words"][qi], db.words)
        ops.record("single-query top-10", topk_matches(loop["top_ids"][qi], loop["top_dist"][qi], ids, dist),
                   f"query {qi}")
        rows = batch[batch[:, 0] == qi]
        ids, dist = reference_ranking(q_codes.words[qi], db.words)
        ops.record("batch top-10", topk_matches(rows[:, 2], rows[:, 3], ids, dist), f"query {qi}")
        ap = evaluation.average_precision(evaluation.rank_database(q_codes.words[qi], db),
                                          gt.positives_mask(qi))
        ref = reference_ap(ids, db_labels == q_labels[qi])
        ops.record("average precision", ap_matches(ap, ref), f"query {qi}: {ap!r} != {ref!r}")


def environment(wl):
    import numpy as np
    import scipy

    from workloads import WORKLOADS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                                "LEVEL3_CACHE_SIZE"):
                caches[parts[0].lower()] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        pass
    l3 = caches.get("level3_cache_size")
    arrays = {}
    for name, w in WORKLOADS.items():
        sizes = w.array_bytes()
        total = sum(sizes.values())
        arrays[name] = {**sizes, "total": total,
                        "below_l3": None if l3 is None else total < l3}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "ESH_THREADS": str(eval_threads(wl)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches_bytes": caches,
        "array_bytes": arrays,
    }


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    if not (SRC / "esh" / "__init__.py").is_file():
        print(f"error: no esh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    import esh

    if Path(esh.__file__).resolve().parent != (SRC / "esh").resolve():
        print(f"error: imported esh from {esh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, Operations, run_cli, train_argv, write_inputs

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Operations()
    traced = bool(args.trace)

    # set-up: inputs (and, for serve, the model) made setup_reps times; in a
    # traced run once untraced and once traced
    setup_s, train_setup_s, setup_dirs, digests = [], [], [], []
    recorder = None
    for rep in range(2 if traced else wl.setup_reps):
        if traced and rep == 1:
            recorder = tracing.Recorder(wl.name)
            tracing.install(recorder)
        start = time.perf_counter()
        paths = write_inputs(wl, args.seed, work / "data")
        if wl.train_in_setup:
            setup_dirs.append(work / f"setup{rep}")
            train_setup_s.append(run_cli(train_argv(wl, args.seed, paths["train"], setup_dirs[-1]),
                                         ops, "esh train (set-up)"))
        setup_s.append(time.perf_counter() - start)
        digests.append(tuple(sha256(p) for p in paths.values() if p.exists()))
    if recorder:
        recorder.restore()
    setup_spans = list(recorder.spans) if recorder else []
    ops.record("set-up reproducible", len(set(digests)) == 1, "inputs differ between set-ups")

    spec = {
        "workload": asdict(wl), "seed": args.seed,
        "data_dir": str(work / "data"), "sys_path": [str(SRC), str(HERE)],
        "model": str(setup_dirs[0] / "model.eshm") if setup_dirs else None,
        "rounds": 1 if traced else wl.rounds(args.seconds), "traced": False,
    }
    limit_s = max(RUN_LIMIT_S, SLOWDOWN * spec["rounds"] * wl.round_s)

    def time_left():
        return limit_s - (time.perf_counter() - t0) - CHECK_RESERVE_S

    try:
        # a traced run gives its untraced phase half of the time left
        phases = [run_phase(spec, work / "phase", wl, time_left() / (2 if traced else 1))]
        if traced:
            phases.append(run_phase({**spec, "traced": True}, work / "phase_traced", wl,
                                    time_left()))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    run_dir = work / ("phase_traced" if traced else "phase")
    phase = phases[-1]
    for p in phases:
        ops.merge(p)

    model_dirs = setup_dirs if wl.train_in_setup else [Path(d) for d in phase["train_dirs"]]
    check_outputs(wl, args.seed, paths, phase, run_dir, model_dirs, ops)

    if traced:
        untraced = end_to_end(wl, phases[0], setup_s[:1], train_setup_s[:1])
        traced_e2e = end_to_end(wl, phase, setup_s[1:], train_setup_s[1:])
        ops.record("tracing changes no result", untraced["map"] == traced_e2e["map"],
                   f"mAP {untraced['map']!r} untraced, {traced_e2e['map']!r} traced")
        spans = setup_spans + tracing.offset(tracing.load_spans(run_dir / "spans.jsonl"),
                                             len(setup_spans))
        counts = tracing.merge_counts(recorder.counts if recorder else {}, phase["counts"])
        metrics = tracing.per_layer_metrics(spans, counts, phase["installed"])
        trace_csv = model_dirs[0] / "trace.csv"
        last = Path(trace_csv).read_text().strip().splitlines()[-1].split(",")
        metrics["optimizer.final_loss"] = float(last[1])
        metrics["optimizer.orth_residual_final"] = float(last[2])
        for name in OVERHEAD_METRICS:
            metrics[f"overhead.{name}"] = traced_e2e[name] - untraced[name]
        wanted = bench["per_layer"]
    else:
        metrics = end_to_end(wl, phase, setup_s, train_setup_s)
        wanted = bench["end_to_end"]

    result_metrics = {}
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"measured {phase['measured_s']:.1f} s")
    for m in wanted:
        if m["name"] in metrics:
            value = metrics[m["name"]]
            result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} = {value:.6g} {m['unit']} ({m['better']} is better)")
        else:
            print(f"{m['name']} absent (its traced function no longer exists)")
    print(f"# closed loop in wall time (not a metric): "
          f"p50 {latency_percentile(phase['wall_latency_ms'], 50):.4g} ms, "
          f"p99 {latency_percentile(phase['wall_latency_ms'], 99):.4g} ms")
    for err in ops.errors[:20]:
        print(f"failed: {err}")
    env = environment(wl)
    (work / "environment.json").write_text(json.dumps(env, indent=2))
    print(json.dumps({"environment": env}))
    shutil.rmtree(work / "data", ignore_errors=True)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
