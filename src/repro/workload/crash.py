"""Randomized kill-and-recover trials for the WAL mutation stack.

Each trial builds a small index, reopens it as a
:class:`~repro.gist.mutable.MutableTree` with a randomly placed
:class:`~repro.storage.faults.CrashPoint`, and applies a random
insert/delete workload until the injected crash kills the commit
protocol.  A shadow in-memory tree mirrors exactly the *committed*
transactions — an op whose crash fired after the WAL fsync (pre-apply,
mid-apply) is durable and mirrored; one killed mid-append is not.  The
trial then proves the recovery contract:

- replaying the log twice with ``checkpoint=False`` leaves the data
  file byte-identical (redo is idempotent);
- reopening (which recovers) yields a tree whose deep scrub
  (:func:`repro.analysis.deep_scrub`) is clean;
- k-NN results are bit-identical to the shadow tree's, before and
  after a few post-recovery mutations (the file is live, not merely
  readable).

``python -m repro crashtest`` drives this across all six AM families;
the CI crash-recovery job runs ≥200 seeded trials per push.
"""

from __future__ import annotations

import os
import random
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import make_extension
from repro.gist.mutable import MutableTree
from repro.gist.persist import load_tree, save_tree
from repro.gist.tree import GiST
from repro.storage.faults import CrashError, CrashInjector, CrashPoint
from repro.storage.wal import recover

#: the six AM families the acceptance harness must cover.
DEFAULT_METHODS = ("rtree", "sstree", "srtree", "amap", "jb", "xjb")

CRASH_POINTS = ("mid-append", "pre-apply", "mid-apply")


@dataclass
class TrialResult:
    """One kill-and-recover trial's outcome."""

    method: str
    seed: int
    point: str
    after: int
    torn: float
    codec: str = "f64"
    ok: bool = False
    crash_fired: bool = False
    ops_committed: int = 0
    transactions_replayed: int = 0
    torn_bytes: int = 0
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"method": self.method, "seed": self.seed,
                "point": self.point, "after": self.after,
                "torn": self.torn, "codec": self.codec, "ok": self.ok,
                "crash_fired": self.crash_fired,
                "ops_committed": self.ops_committed,
                "transactions_replayed": self.transactions_replayed,
                "torn_bytes": self.torn_bytes, "error": self.error}


@dataclass
class CrashReport:
    """Aggregate over a batch of trials."""

    trials: List[TrialResult] = field(default_factory=list)

    @property
    def failures(self) -> List[TrialResult]:
        return [t for t in self.trials if not t.ok]

    @property
    def crashes_fired(self) -> int:
        return sum(1 for t in self.trials if t.crash_fired)

    @property
    def clean(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {"trials": [t.to_dict() for t in self.trials],
                "total": len(self.trials),
                "crashes_fired": self.crashes_fired,
                "failures": len(self.failures)}

    def format(self) -> str:
        by_method: Dict[str, int] = {}
        for t in self.trials:
            by_method[t.method] = by_method.get(t.method, 0) + 1
        lines = [f"crashtest: {len(self.trials)} trials "
                 f"({self.crashes_fired} crashes fired), "
                 f"{len(self.failures)} failures",
                 "per method   : "
                 + ", ".join(f"{m} {n}" for m, n in sorted(by_method.items()))]
        for t in self.failures:
            lines.append(f"  FAIL {t.method} seed={t.seed} point={t.point} "
                         f"after={t.after}: {t.error.splitlines()[-1]}")
        lines.append(f"verdict      : {'clean' if self.clean else 'FAILED'}")
        return "\n".join(lines)


def run_crash_trial(method: str, seed: int, workdir: str,
                    dim: int = 3, page_size: int = 1024,
                    base_points: int = 150, ops: int = 40,
                    codec: str = "f64") -> TrialResult:
    """One randomized kill-and-recover trial; see the module docstring.

    ``codec`` selects the leaf-page format under test.  Every tree of
    the trial has the original keys attached as ``exact``, so sq8
    trials make the same bit-exact k-NN shadow comparison as f64 ones.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    point = rng.choice(CRASH_POINTS)
    # `after` counts injector check sites (records for mid-append, pages
    # for mid-apply, commits for pre-apply), so a wide range lands
    # crashes anywhere in the run — and sometimes not at all, which
    # doubles as a clean-run trial.  Torn fractions stay below 1.0: a
    # fully written "torn" record would be indistinguishable from a
    # complete one (and genuinely durable).
    after = rng.randrange(0, 3 * ops)
    torn = rng.uniform(0.0, 0.95)
    result = TrialResult(method=method, seed=seed, point=point,
                         after=after, torn=torn, codec=codec)
    path = os.path.join(workdir, f"{method}-{seed}.amdb")
    try:
        _run_trial(result, path, rng, nprng, dim, page_size,
                   base_points, ops)
        result.ok = True
    except Exception:
        result.error = traceback.format_exc()
    finally:
        for p in (path, path + ".wal"):
            if os.path.exists(p):
                os.unlink(p)
    return result


def _run_trial(result: TrialResult, path: str, rng: random.Random,
               nprng: np.random.Generator, dim: int, page_size: int,
               base_points: int, ops: int) -> None:
    from repro.analysis import deep_scrub

    method = result.method
    pts = nprng.uniform(0.0, 100.0, size=(base_points, dim))
    # The original key of every rid the trial can insert.
    keys = np.zeros((base_points + ops + 3, dim))
    keys[:base_points] = pts
    from repro.storage.codecs import make_leaf_codec
    base = GiST(make_extension(method, dim), page_size=page_size,
                leaf_codec=make_leaf_codec(result.codec, dim))
    # an sq8 tree refits its pages to the original keys, as mt's does
    base.exact = keys
    for i, p in enumerate(pts):
        base.insert(p, i)
    save_tree(base, path)

    shadow = load_tree(path=path)
    shadow.exact = keys
    live: List[Tuple[np.ndarray, int]] = [(pts[i], i)
                                          for i in range(base_points)]
    next_rid = base_points
    injector = CrashInjector(CrashPoint(point=result.point,
                                        after=result.after,
                                        torn=result.torn))
    mt = MutableTree.open(path, injector=injector, exact=keys)
    try:
        for _ in range(ops):
            insert = not live or rng.random() < 0.6
            if insert:
                key = keys[next_rid] = nprng.uniform(0.0, 100.0, size=dim)
                rid = next_rid
                next_rid += 1
            else:
                key, rid = live[rng.randrange(len(live))]
            try:
                if insert:
                    mt.insert(key, rid)
                else:
                    assert mt.delete(key, rid), \
                        f"live pair (rid {rid}) not found"
            except CrashError:
                result.crash_fired = True
                # The WAL fsync is the durability point: a commit that
                # died mid-append never became durable; one that died
                # pre-apply or mid-apply did, and recovery must redo it.
                if result.point != "mid-append":
                    _mirror(shadow, live, insert, key, rid)
                    result.ops_committed += 1
                break
            _mirror(shadow, live, insert, key, rid)
            result.ops_committed += 1
    finally:
        mt.close()

    # Redo is idempotent: replaying the same log twice (no checkpoint)
    # leaves the data file byte-identical.
    recover(path, checkpoint=False)
    with open(path, "rb") as f:
        first = f.read()
    recover(path, checkpoint=False)
    with open(path, "rb") as f:
        second = f.read()
    assert first == second, "recovery is not idempotent"

    mt2 = MutableTree.open(path, exact=keys)
    try:
        result.transactions_replayed = mt2.recovery.transactions_applied
        result.torn_bytes = mt2.recovery.truncated_bytes
        scrub = deep_scrub(path)
        assert scrub.clean, f"deep scrub damaged:\n{scrub.format()}"
        assert mt2.tree.size == shadow.size, \
            f"size {mt2.tree.size} != shadow {shadow.size}"
        queries = nprng.uniform(0.0, 100.0, size=(4, dim))
        k = min(8, max(1, shadow.size))
        if shadow.size:
            assert mt2.tree.knn_batch(queries, k) == \
                shadow.knn_batch(queries, k), \
                "k-NN diverges from shadow"
        # The recovered file is live: a few more mutations must commit
        # and stay in parity.
        for _ in range(3):
            key = keys[next_rid] = nprng.uniform(0.0, 100.0, size=dim)
            mt2.insert(key, next_rid)
            shadow.insert(key, next_rid)
            next_rid += 1
        assert mt2.tree.size == shadow.size, \
            "size diverges after post-recovery inserts"
        if shadow.size:
            assert mt2.tree.knn_batch(queries, k) == \
                shadow.knn_batch(queries, k), \
                "k-NN diverges after post-recovery inserts"
    finally:
        mt2.close()
    scrub = deep_scrub(path)
    assert scrub.clean, f"final deep scrub damaged:\n{scrub.format()}"


def _mirror(shadow: GiST, live: List[Tuple[np.ndarray, int]],
            insert: bool, key: np.ndarray, rid: int) -> None:
    if insert:
        shadow.insert(key, rid)
        live.append((key, rid))
    else:
        assert shadow.delete(key, rid)
        live[:] = [(k, r) for k, r in live if r != rid]


def run_crash_trials(methods: Sequence[str] = DEFAULT_METHODS,
                     trials: int = 60, seed: int = 0,
                     workdir: Optional[str] = None,
                     **options: Any) -> CrashReport:
    """``trials`` randomized trials round-robined over ``methods``.

    A ``workdir`` that does not exist yet is created and left in place.
    """
    report = CrashReport()
    own_dir = workdir is None
    if own_dir:
        workdir = tempfile.mkdtemp(prefix="repro-crash-")
    assert workdir is not None
    os.makedirs(workdir, exist_ok=True)
    try:
        for i in range(trials):
            method = methods[i % len(methods)]
            report.trials.append(
                run_crash_trial(method, seed + i, workdir, **options))
    finally:
        if own_dir:
            try:
                os.rmdir(workdir)
            except OSError:
                pass
    return report
