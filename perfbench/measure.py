"""The measured phase of one workload, run in a fresh process.

Usage: python3 perfbench/measure.py SPEC.json

The parent (run.py) writes SPEC.json after set-up and reads RUN_DIR/
phase.json back. A process of its own, with its peak read from its own
address space (see peak_rss_mb), means set-up allocations never set the
peak resident memory reported here. With "traced" set, spans around
esh's public functions are recorded and written to RUN_DIR/spans.jsonl.

The phase is a fixed number of rounds (SPEC "rounds"), so every run of a
workload does the same work; the steps interleave, so each metric samples
the whole run. A round, each step through esh's public entry points:

1. ``esh train`` (unless the workload trains during set-up);
2. ``query_reps`` times (more where these steps are short):

   a. ``esh encode`` of the database in linear mode, ``ENCODE_PASSES`` times;
   b. ``esh encode --query-mode graph`` of the queries, for ``esh eval``;
   c. a closed loop with one client: for each query, ``model.encode`` (graph
      mode) and ``rank_database``, then the next query, after a few warm-up
      queries; each query's on-CPU and wall latency are recorded;
   d. ``esh query --top 10`` over the whole query file;
   e. ``esh eval --precision-at 100,300``.

A round is ``query_reps`` blocks (steps a-e, the first block with step 1).
The phase stops early, before a block it would not finish by SPEC
"deadline_s" seconds (judged by the longest block so far), so a much
slower esh still reports what it measured; the stop counts as a failed
operation. The first block always runs.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

TOP = 10
WARMUP_QUERIES = 20


def peak_rss_mb():
    """Peak resident memory of this process's address space (VmHWM), in MB.

    Not getrusage's ru_maxrss: on Linux, exec carries the high-water mark
    of the address space it replaces into the new process's ru_maxrss, and
    with a vfork-based spawn that is the parent's, so the child would start
    at the peak of the parent's set-up. VmHWM belongs to the address space
    exec creates, so it counts only this program's own memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the kernel reports kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def closed_loop(model_path, db_codes, queries, run_dir, ops, warmup):
    """One client, one query at a time: graph-encode it, rank the database.

    Returns two latencies per query in ms: on-CPU (the process's CPU time
    over the query) and wall. The on-CPU one is the metric: the query path
    runs on one thread (BLAS is pinned to one), so on an idle host the two
    agree to microseconds, but on a shared host the wall tail is set by
    the time the scheduler gives other tenants (two busy neighbours moved
    the wall p99 from 2.4 to 6.1 ms and the on-CPU p99 by 1 %). The top-10
    lists and query codes go to RUN_DIR/loop.npz for the checks.
    """
    from esh import encoder, evaluation
    from esh.dataset import load_features

    model = encoder.load_model(model_path)
    db = encoder.load_codes(db_codes)
    Q = load_features(queries)
    for i in range(warmup):
        evaluation.rank_database(model.encode(Q[i : i + 1]).words[0], db)
    nq = Q.shape[0]
    wall = np.empty(nq)
    cpu = np.empty(nq)
    top_ids = np.zeros((nq, TOP), dtype=np.int64)
    top_dist = np.zeros((nq, TOP), dtype=np.int64)
    q_words = np.zeros((nq, db.n_words), dtype=np.uint64)
    for i in range(nq):
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            code = model.encode(Q[i : i + 1])
            ranking = evaluation.rank_database(code.words[0], db)
            ids, dist = ranking.ids[:TOP], ranking.distances[:TOP]
            ok, detail = True, ""
        except Exception as e:  # noqa: BLE001 - a failed query is counted, not fatal
            ok, detail = False, f"{type(e).__name__}: {e}"
        cpu[i] = time.process_time() - c0
        wall[i] = time.perf_counter() - t0
        ops.record(f"query {i}", ok, detail)
        if ok:
            top_ids[i, : ids.size], top_dist[i, : ids.size] = ids, dist
            q_words[i] = code.words[0]
    np.savez(run_dir / "loop.npz", top_ids=top_ids, top_dist=top_dist, q_words=q_words)
    return (cpu * 1e3).tolist(), (wall * 1e3).tolist()


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    sys.path[:0] = spec["sys_path"]

    import tracing
    from workloads import ENCODE_PASSES, Operations, Workload, input_paths, run_cli, train_argv

    wl = Workload(**{**spec["workload"], "train_flags": tuple(spec["workload"]["train_flags"])})
    seed = spec["seed"]
    run_dir = Path(spec["run_dir"])
    paths = input_paths(spec["data_dir"])
    ops = Operations()
    recorder = None
    installed = []
    if spec["traced"]:
        recorder = tracing.Recorder(wl.name)
        installed = tracing.install(recorder)

    start = time.perf_counter()
    out = {"train_s": [], "encode_s": [], "train_dirs": [], "latency_ms": [],
           "wall_latency_ms": [], "batch_s": [], "eval_s": [], "map": []}
    model_path = spec["model"]
    db_codes = str(run_dir / "db" / "codes.eshb")
    q_codes = str(run_dir / "queries" / "codes.eshb")
    blocks = [(r, b) for r in range(spec["rounds"]) for b in range(wl.query_reps)]
    longest_train = longest_block = 0.0
    stopped = ""
    for i, (r, block) in enumerate(blocks):
        trains = block == 0 and not wl.train_in_setup
        need = longest_block + (longest_train if trains else 0.0)
        if i > 0 and time.perf_counter() - start + need > spec["deadline_s"]:
            stopped = (f"stopped after {i} of {len(blocks)} blocks: "
                       f"{spec['deadline_s']:.0f} s allowed")
            break
        if trains:
            rep_dir = run_dir / f"train{r}"
            out["train_s"].append(run_cli(train_argv(wl, seed, paths["train"], rep_dir), ops,
                                          "esh train"))
            out["train_dirs"].append(str(rep_dir))
            model_path = str(rep_dir / "model.eshm")
            longest_train = max(longest_train, out["train_s"][-1])
        block_start = time.perf_counter()
        for _ in range(ENCODE_PASSES):
            out["encode_s"].append(run_cli(
                ["encode", "--model", model_path, "--features", str(paths["db"]),
                 "--out", str(run_dir / "db")], ops, "esh encode"))
        run_cli(["encode", "--model", model_path, "--features", str(paths["queries"]),
                 "--query-mode", "graph", "--out", str(run_dir / "queries")], ops, "esh encode")
        cpu, wall = closed_loop(model_path, db_codes, paths["queries"], run_dir,
                                ops, warmup=WARMUP_QUERIES)
        out["latency_ms"].append(cpu)
        out["wall_latency_ms"].append(wall)
        out["batch_s"].append(run_cli(
            ["query", "--model", model_path, "--features", str(paths["queries"]),
             "--db-codes", db_codes, "--top", str(TOP), "--out", str(run_dir / "batch")],
            ops, "esh query"))
        out["eval_s"].append(run_cli(
            ["eval", "--query-codes", q_codes, "--db-codes", db_codes,
             "--query-labels", str(paths["query_labels"]), "--labels", str(paths["db_labels"]),
             "--precision-at", "100,300", "--out", str(run_dir / "eval")],
            ops, "esh eval"))
        out["map"].append(json.loads((run_dir / "eval" / "report.json").read_text())["map"])
        longest_block = max(longest_block, time.perf_counter() - block_start)
    ops.record("measured phase within its time limit", not stopped, stopped)
    out["model"] = model_path
    out["measured_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = peak_rss_mb()

    if recorder is not None:
        recorder.dump(run_dir / "spans.jsonl")
        out["installed"] = installed
        out["counts"] = recorder.counts
    out.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors)
    (run_dir / "phase.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
