"""REP201 + REP202 positive fixture: every fork-safety sin at once.

The path matters: the fork rules scope on ``bulk/loader.py`` exactly,
which the negative fixture already occupies, so this one sits under a
second ``fixtures/`` anchor (``module_relpath`` keys on the last one)
and lints as that file too.
"""

import multiprocessing

_FORK_STATE = {}


def build_levels(tree, queries, log_path):
    global _FORK_STATE
    # REP202: a live file handle captured into the fork state.
    _FORK_STATE = {"tree": tree, "log": open(log_path, "w")}
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        # REP202: the worker is a lambda, not a module-level function.
        return pool.map(lambda q: q + 1, queries)


def _worker_shard(bounds):
    # REP201: touches the inherited store without reopening it.
    tree = _FORK_STATE["tree"]
    return tree.store.read(bounds[0])
