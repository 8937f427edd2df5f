"""REP203 positive fixture: daemon entrypoints that skip the reopen.

The directory matters: REP203 scopes on ``serving/``, so this fixture
lints as ``serving/bad_daemon.py``.
"""

import multiprocessing

_INHERITED = {}


def serve_loop(conn, tree):
    while True:
        msg = conn.recv()
        conn.send(tree.knn(msg["query"], msg["k"]))


def _worker_main(shard_id):
    # REP203: the conventional worker name, serving the inherited store
    # without reopening it.
    shard = _INHERITED["shards"][shard_id]
    serve_loop(shard["conn"], shard["tree"])


def spawn_daemon(shard_id):
    # REP203: launch_shard below is a Process target defined in this
    # module and it never reopens either.
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=launch_shard, args=(shard_id,),
                          daemon=True)
    process.start()
    return process


def launch_shard(shard_id):
    shard = _INHERITED["shards"][shard_id]
    serve_loop(shard["conn"], shard["tree"])
