#!/usr/bin/env python3
"""The repo's benchmark: one command, seven workloads, every metric by name.

    python3 benchmarks/spine/run.py --workload point_hot --seed 1 \
        --seconds 6 --trace 0 [--out set.json]
    python3 benchmarks/spine/run.py --seed 1            # all seven
    python3 benchmarks/spine/run.py compare A.json B.json

The contract (metric names, units, bounds, workloads) is BENCHMARK.json at the
root of the checkout; README.md here explains the choices.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
_T0 = time.perf_counter()

#: stop a timed phase that runs this many times longer than asked, so that
#: a badly regressed program still ends inside the driver's time limit
OVERRUN = 4.0


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Put the checkout's ``src`` and this directory on the path.  Without
    the program there is nothing to measure: fail before printing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program under {ROOT / 'src'}; run from a "
                 f"checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Summary:
    """What a traced run saw, for the per-layer metrics: per span name the
    summed duration (``total``), self time (``own``) and count (``calls``),
    all zero for names never recorded."""

    def __init__(self, tracer: Any, workload: Any, latencies: List[float],
                 traced: List[bool], wall: float) -> None:
        self.total, self.own, self.calls = tracer.totals()
        self.counts = tracer.counts
        self.wall = wall
        self.ops = len(latencies)
        self.latencies = latencies
        self.traced = traced
        self.traced_ops = sum(traced)
        self.traced_items = self.traced_ops * workload.items_per_op
        self.traced_wall = self.total["driver.op"]


def span_cost() -> float:
    """Seconds one span costs, for workloads too short to interleave."""
    from tracing import Tracer
    tracer = Tracer()
    tracer.enabled = True
    start = time.perf_counter()
    for _ in range(2000):
        tracer.close(tracer.open("x"))
    return (time.perf_counter() - start) / 2000


def layer_metrics(names: List[str], workload: Any, summary: Summary,
                  generator_s: float, timings: Dict[str, float]
                  ) -> Dict[str, float]:
    total, own, calls, counts = (summary.total, summary.own, summary.calls,
                                 summary.counts)
    items = max(summary.traced_items, 1)
    latencies = summary.latencies
    on = [l for l, t in zip(latencies, summary.traced) if t]
    off = [l for l, t in zip(latencies, summary.traced) if not t]
    if off:
        overhead = statistics.median(on) / statistics.median(off)
    else:
        spans = sum(calls.values())
        overhead = 1.0 + spans * span_cost() / max(summary.traced_wall, 1e-9)
    ordered = sorted(latencies)
    values = dict.fromkeys(names, 0.0)
    values.update({
        "storage.read_s": total["storage.read"],
        "storage.read_pages": counts["storage.read_pages"],
        "storage.pool_self_s": own["storage.pool"],
        "storage.write_s": total["storage.write"],
        "storage.wal_commit_s": own["storage.wal_commit"],
        "gist.knn_self_s": own["gist.knn"],
        "gist.leaf_pages_per_query": counts["gist.leaf_pages"] / items,
        "gist.inner_pages_per_query": counts["gist.inner_pages"] / items,
        "gist.planner.plan_s": total["gist.planner.plan"],
        "gist.mutable.insert_self_s": own["gist.mutable.insert"],
        "gist.mutable.delete_self_s": own["gist.mutable.delete"],
        "ams.bp_dist_s": total["ams.bp_dist"],
        "ams.bp_dist_calls": calls["ams.bp_dist"],
        "ams.flat_scan_s": total["ams.flat_scan"],
        # aggregation, where the profile hook splits it out, is its child
        "blobworld.rerank_s": own["blobworld.rerank"],
        "blobworld.rerank_candidates": counts["blobworld.rerank_candidates"],
        "blobworld.aggregation_s": total["blobworld.aggregation"],
        "blobworld.engine_self_s": own["blobworld.am_query"],
        "blobworld.corpus_build_s": timings["corpus_build_s"],
        "blobworld.embed_reduce_s": timings["embed_reduce_s"],
        "serving.coord_self_s": own["serving.request"],
        "driver.generator_s": generator_s,
        "driver.unattributed_share":
            own["driver.op"] / max(summary.traced_wall, 1e-9),
        "driver.traced_ops": summary.traced_ops,
        "driver.op_samples": len(latencies),
        "driver.op_ms_p95": ordered[int(0.95 * (len(ordered) - 1))] * 1e3,
        "driver.throughput_per_s":
            summary.ops * workload.items_per_op / summary.wall,
        "trace.overhead_ratio": overhead,
    })
    for profile in workload.builds:
        family = profile.tree_name
        phases = profile.phase_seconds
        values[f"bulk.build_s.{family}"] += profile.total_seconds
        values[f"ams.bp_build_s.{family}"] += phases.get("bp", 0.0)
        for phase in ("sort", "pack", "write"):
            values[f"bulk.{phase}_s"] += phases.get(phase, 0.0)
    values.update(workload.parts)
    values.update(workload.layer_metrics(summary))
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {unknown}")
    return values


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    dies (Linux's child-subreaper flag), so that ``stop_processes`` can find
    and wait for all of them.  Best effort: elsewhere only direct children
    are seen."""
    try:
        import ctypes
        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass


def children() -> Dict[int, str]:
    """pid -> state letter of every process whose parent is this one; a
    zombie ("Z") has ended and only needs waiting for."""
    me = os.getpid()
    found = {}
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # pid (comm) state ppid ...; comm may hold spaces and ')'
                state, ppid = f.read().rpartition(")")[2].split()[:2]
        except OSError:
            continue                    # ended while we looked
        if int(ppid) == me:
            found[int(entry)] = state
    return found


def stop_processes() -> List[str]:
    """Stop every process this one started and wait until each has ended.

    The program's shard workers are joined by ``ShardedService.close``; one
    still alive here is killed and reported.  The standard library's
    shared-memory resource tracker, which the service's rings start behind
    the scenes, would otherwise outlive this process: it is stopped and
    waited for (it starts again when next needed)."""
    from multiprocessing import resource_tracker
    stray = []
    for child in multiprocessing.active_children():
        stray.append(f"worker process {child.pid} still alive")
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()
    for pid, state in children().items():
        if state != "Z":
            stray.append(f"process {pid} still alive")
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return stray


def leftovers(workdir: Path) -> List[str]:
    """Hygiene, counted as correctness: what the run left behind."""
    from repro.serving.shm import segment_prefix
    found = stop_processes()
    shm = Path("/dev/shm")
    if shm.is_dir():
        found += [f"shared-memory segment {p.name} not unlinked"
                  for p in shm.glob(segment_prefix().lstrip("/") + "*")]
    if workdir.exists():
        found.append(f"working directory {workdir} not removed")
    return found


class Phases(dict):
    """Wall seconds per phase of a run, kept in the result so that a run's
    cost outside its timed phase is on record."""

    @contextlib.contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self[name] = self.get(name, 0.0) + time.perf_counter() - start


def timed_phase(workload: Any, tracer: Any, seconds: float,
                problems: List[str]) -> Tuple[List[float], List[bool],
                                              List[Any]]:
    """The closed loop: one client, the next operation after the last
    returns.  Traced runs switch the tracer in an off-on-on-off pattern of
    blocks, so traced and untraced operations meet the same caches and any
    drift over the run cancels in their ratio."""
    latencies: List[float] = []
    traced: List[bool] = []
    answers: List[Any] = []
    block = workload.trace_block
    begin = time.perf_counter()
    for i in range(workload.num_ops):
        on = tracer is not None and (block == 0
                                     or (i // block) % 4 in (1, 2))
        root = None
        if tracer is not None:
            tracer.enabled = on
            root = tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            answers.append(workload.op(i))
        except Exception:
            answers.append(None)
            problems.append(f"{workload.name}: operation {i} raised\n"
                            + traceback.format_exc())
        t1 = time.perf_counter()
        if root is not None:
            tracer.close(root)
        latencies.append(t1 - t0)
        traced.append(on)
        if t1 - begin > OVERRUN * seconds:
            problems.append(
                f"{workload.name}: stopped after {i + 1} of "
                f"{workload.num_ops} operations, {OVERRUN:g}x over the "
                f"{seconds:g} s asked for")
            break
    if tracer is not None:
        tracer.enabled = False
    return latencies, traced, answers


def run_workload(cls: Any, contract: Dict[str, Any], corpus: Any, scale: Any,
                 args: argparse.Namespace, shared_setup_s: float,
                 timings: Dict[str, float]) -> Dict[str, Any]:
    from dataset import BUILD_DIR
    from tracing import Tracer
    from workloads import Env

    tracer = Tracer() if args.trace else None
    workdir = BUILD_DIR / "tmp" / f"{cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = cls(Env(corpus, scale, args.seed, args.seconds, workdir,
                       tracer))
    problems: List[str] = []
    layers: Dict[str, float] = {}
    phases = Phases()
    try:
        with phases("generate"):
            workload.prepare()
        setups = []
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.discard_setup()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        phases["setup"] = sum(setups)
        try:
            if tracer is not None:
                workload.instrument(tracer)
            with phases("warmup"):
                for i in range(-workload.warmup, 0):
                    workload.op(i)
                workload.start_timed()
            with phases("timed"):
                latencies, traced, answers = timed_phase(
                    workload, tracer, args.seconds, problems)
            with phases("verify"):
                checked, wrong = workload.verify(answers)
            problems += wrong
            if tracer is not None:
                layers = layer_metrics(
                    [m["name"] for m in contract["per_layer"]], workload,
                    Summary(tracer, workload, latencies, traced,
                            phases["timed"]),
                    phases["generate"], timings)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
            with phases("teardown"):
                workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += leftovers(workdir)
    if tracer is not None:
        trace_dir = BUILD_DIR / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(trace_dir / f"{cls.name}.json"))

    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    user_visible = workload.user_latencies(latencies)
    end_to_end = {
        "setup_s": shared_setup_s + statistics.median(setups),
        "op_ms_p50": statistics.median(user_visible) * 1e3,
        "peak_rss_mb": (own_rss + workload.workers * child_rss) / 1024.0,
        "index_bytes_per_blob":
            workload.index_bytes / max(workload.blobs_indexed, 1),
    }
    values = layers if tracer is not None else end_to_end
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
             for m in contract[group]}
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {
        "workload": cls.name,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(bool(args.trace)),
        "scale": scale.name,
        "operations": {"timed": len(latencies), "warmup": workload.warmup,
                       "items_per_op": workload.items_per_op,
                       "latency_samples": len(user_visible),
                       "answers_checked": checked},
        "phases_s": {name: round(value, 3) for name, value in phases.items()},
        "problems": [p.splitlines()[0] for p in problems],
        "result": {
            "correct": not problems,
            "attempted": len(latencies),
            "failed": len(problems),
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in values.items()},
        },
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def environment() -> Dict[str, Any]:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def report(run: Dict[str, Any]) -> None:
    ops = run["operations"]
    print(f"{run['workload']}  seed {run['seed']}  scale {run['scale']}  "
          f"{ops['timed']} operations x {ops['items_per_op']}  "
          f"({ops['latency_samples']} latency samples, "
          f"{ops['answers_checked']} answers checked)")
    for name, metric in run["result"]["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  correct {run['result']['correct']}  failed "
          f"{run['result']['failed']} of {run['result']['attempted']}  "
          f"phases {run['phases_s']}")


def append_out(path: str, runs: List[Dict[str, Any]]) -> None:
    """``--out`` accumulates: ten invocations into one file make a set."""
    document = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path) as f:
            document = json.load(f)
    document["runs"] += runs
    with open(path, "w") as f:
        json.dump(document, f, indent=1)


def main(argv: List[str]) -> int:
    contract = load_contract()
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:], contract)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", default="paper", choices=("paper", "test"))
    parser.add_argument("--out", help="JSON file to append the results to")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    adopt_orphans()
    # a terminated run unwinds like any other, so that it stops its workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return measure(args, contract, names)
    finally:
        stop_processes()


def measure(args: argparse.Namespace, contract: Dict[str, Any],
            names: List[str]) -> int:
    from dataset import SCALES, open_corpus
    from workloads import WORKLOADS
    imports_s = time.perf_counter() - _T0
    timings: Dict[str, float] = {}
    scale = SCALES[args.scale]
    corpus = open_corpus(scale, timings)
    # imports + opening the corpus, paid once by every process; generating
    # the corpus (first run in a checkout) is reported per layer instead
    shared_setup_s = imports_s + timings["open_s"]

    meta = environment()
    runs = []
    for name in args.workload or names:
        run = run_workload(WORKLOADS[name], contract, corpus, scale, args,
                           shared_setup_s, timings)
        run["environment"] = meta
        runs.append(run)
        report(run)
        print(json.dumps(run["result"]), flush=True)
    if args.out:
        append_out(args.out, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
