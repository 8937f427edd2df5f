"""Kill-and-recover harness: the randomized trials CI runs at scale.

A small deterministic slice runs here (the CI crash-recovery job runs
200+); plus targeted single trials proving each crash point exercises
the distinct durability semantics it claims.
"""

import pytest

from repro.workload.crash import (CRASH_POINTS, DEFAULT_METHODS,
                                  run_crash_trial, run_crash_trials)


def test_default_methods_are_the_six_families():
    assert DEFAULT_METHODS == ("rtree", "sstree", "srtree", "amap",
                               "jb", "xjb")


@pytest.mark.parametrize("method", DEFAULT_METHODS)
def test_one_trial_per_family(method, tmp_path):
    result = run_crash_trial(method, seed=101, workdir=str(tmp_path))
    assert result.ok, result.error


def test_batch_round_robins_and_reports(tmp_path):
    report = run_crash_trials(methods=("rtree", "jb"), trials=6, seed=40,
                              workdir=str(tmp_path))
    assert len(report.trials) == 6
    assert [t.method for t in report.trials] == ["rtree", "jb"] * 3
    assert report.clean, report.format()
    assert "verdict      : clean" in report.format()
    payload = report.to_dict()
    assert payload["total"] == 6
    assert payload["failures"] == 0


def test_trials_cover_every_crash_point(tmp_path):
    """A modest batch must actually fire crashes at all three points —
    otherwise the harness is testing clean shutdowns, not recovery."""
    report = run_crash_trials(methods=("rtree",), trials=24, seed=0,
                              workdir=str(tmp_path))
    assert report.clean, report.format()
    fired = {t.point for t in report.trials if t.crash_fired}
    assert fired == set(CRASH_POINTS)
    # Durable crashes must come back through replay.
    assert any(t.transactions_replayed > 0 for t in report.trials
               if t.crash_fired and t.point != "mid-append")
    # Mid-append crashes must leave (and truncate) a torn tail.
    assert any(t.torn_bytes > 0 for t in report.trials
               if t.crash_fired and t.point == "mid-append")


def test_missing_workdir_is_created(tmp_path):
    """A caller's work directory that does not exist yet is made, not
    reported as a durability failure in every trial."""
    workdir = tmp_path / "new"
    report = run_crash_trials(trials=2, workdir=str(workdir))
    assert report.clean, report.format()
    assert workdir.is_dir()
