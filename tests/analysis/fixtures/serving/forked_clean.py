"""REP205 negative fixture: acquisitions stay on the coordinator side.

The module forks and socketpairs — but only in
functions unreachable from the fork entrypoints, which merely attach
to what the parent hands them.
"""

import socket

from multiprocessing import shared_memory

from repro.storage.fork import reopen_files


def _worker_main(shard_id, segment_name):
    reopen_files(shard_id)
    _attach(segment_name)


def _attach(name):
    # Attaching (create=False) is exactly what a child should do.
    seg = shared_memory.SharedMemory(name=name, create=False)
    try:
        return bytes(seg.buf[:4])
    finally:
        seg.close()


def launch(ctx):
    parent, child = socket.socketpair()
    process = ctx.Process(target=_worker_main, args=(0, child),
                          daemon=True)
    process.start()
    return parent, process
