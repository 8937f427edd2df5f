"""REP203 negative fixture: daemon entrypoints that reopen correctly."""

import multiprocessing

from repro.storage.fork import reopen_files

_INHERITED = {}


def serve_loop(conn, tree):
    while True:
        msg = conn.recv()
        conn.send(tree.knn(msg["query"], msg["k"]))


def _worker_main(shard_id):
    shard = _INHERITED["shards"][shard_id]
    reopen_files(shard["tree"].store)
    serve_loop(shard["conn"], shard["tree"])


def spawn_daemon(shard_id):
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=launch_shard, args=(shard_id,),
                          daemon=True)
    process.start()
    return process


def launch_shard(shard_id):
    shard = _INHERITED["shards"][shard_id]
    reopen_files(shard["tree"].store)
    serve_loop(shard["conn"], shard["tree"])
