"""Plumbing test of the benchmark at a 2,000-blob corpus.

Run it explicitly — ``pytest benchmarks/spine -q`` — it is not part of the
tier-1 suite.  It checks the contract between BENCHMARK.json and what run.py
emits, not performance: numbers measured here are stamped ``scale: test`` and
``compare`` refuses to set them beside paper-scale ones.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_py(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def all_workloads(out: Path, trace: int):
    done = run_py("--scale", "test", "--seconds", 0.5, "--seed", 3,
                  "--trace", trace, "--out", out)
    assert done.returncode == 0, done.stderr
    runs = json.loads(out.read_text())["runs"]
    return done, {run["workload"]: run for run in runs}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return all_workloads(tmp_path_factory.mktemp("spine") / "a.json", 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return all_workloads(tmp_path_factory.mktemp("spine") / "t.json", 1)


def test_contract_names_and_workloads():
    from workloads import WORKLOADS as classes
    assert WORKLOADS == list(classes)
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(m["unit"] for m in metrics)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/spine"]


@pytest.mark.parametrize("group, fixture", [("end_to_end", "untraced"),
                                            ("per_layer", "traced")])
def test_every_workload_emits_every_metric(group, fixture, request):
    _, runs = request.getfixturevalue(fixture)
    units = {m["name"]: m["unit"] for m in CONTRACT[group]}
    assert list(runs) == WORKLOADS
    for name, run in runs.items():
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, run["problems"]
        assert result["attempted"] == run["operations"]["timed"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert run["scale"] == "test" and run["seed"] == 3
        assert run["environment"]["numpy"] and run["environment"]["nproc"]
        if group == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values()), \
                (name, result["metrics"])


def test_last_line_is_the_result(untraced):
    done, runs = untraced
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last == runs[WORKLOADS[-1]]["result"]


def test_each_layer_shows_where_it_should(traced):
    _, runs = traced

    def value(workload, metric):
        return runs[workload]["result"]["metrics"][metric]["value"]

    for workload in WORKLOADS:
        assert value(workload, "driver.unattributed_share") <= 0.05
        assert value(workload, "trace.overhead_ratio") > 0
    assert value("point_hot", "gist.leaf_pages_per_query") > 0
    assert value("point_hot", "ams.bp_dist_calls") > 0
    assert value("bulk_batch", "ams.flat_scan_pages") > 0
    assert value("serve_unique", "serving.bytes_shm_per_query") \
        + value("serve_unique", "serving.bytes_pickled_per_query") > 0
    assert value("serve_repeat", "blobworld.cache_hit_rate") > 0
    assert value("mutate_mix", "storage.wal_bytes_per_write") > 0
    assert value("build_paper_ams", "ams.bp_build_s.amap") > 0


def test_span_self_times_sum_to_wall(traced):
    from tracing import END, NAME as SPAN_NAME, PARENT, ROOT as ROOT_SPAN, \
        START, Tracer
    for workload in WORKLOADS:
        tracer = Tracer()
        tracer.spans = json.loads(
            (ROOT / ".bench_build" / "spine" / "trace"
             / f"{workload}.json").read_text())["spans"]
        assert tracer.spans, workload
        wall = sum(s[END] - s[START] for s in tracer.spans
                   if s[PARENT] == -1)
        own = tracer.self_times()
        assert all(s[SPAN_NAME] == ROOT_SPAN for s in tracer.spans
                   if s[PARENT] == -1)
        assert sum(own) == pytest.approx(wall, rel=1e-9)
        assert min(own) > -1e-6, workload


def test_compare_verdicts(untraced, tmp_path):
    _, runs = untraced
    document = {"schema": 1, "runs": list(runs.values())}
    same = tmp_path / "a.json"
    same.write_text(json.dumps(document))
    assert run_py("compare", same, same).returncode == 0

    slower = copy.deepcopy(document)
    slower["runs"][0]["result"]["metrics"]["op_ms_p50"]["value"] *= 2
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    done = run_py("compare", same, worse)
    assert done.returncode == 1 and "regressed" in done.stdout

    for run in slower["runs"]:
        run["scale"] = "paper"
    worse.write_text(json.dumps(slower))
    assert run_py("compare", same, worse).returncode == 2


def test_no_process_outlives_a_run():
    """The service's rings start the standard library's shared-memory
    resource tracker, which ends only after its parent has unless run.py
    stops it.  As a subreaper this process would inherit it."""
    import run
    run.adopt_orphans()
    done = run_py("--scale", "test", "--workload", "serve_unique",
                  "--seconds", 0.5, "--seed", 3, "--trace", 0)
    assert done.returncode == 0, done.stderr
    assert run.children() == {}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    done = run_py("--workload", "point_hot", "--seed", 1, "--seconds", 1,
                  "--trace", 0, cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "spine" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
