"""REP205 positive fixture: parent-only acquisitions inside the fork.

Both workers dutifully reopen their stores (REP203 is satisfied), but
each can *reach* code that acquires a parent-side handle — one through
a helper that opens a fresh socketpair per request, one through a
helper that creates a shared-memory segment inside the child.
"""

import socket
from multiprocessing.shared_memory import SharedMemory

from repro.storage.fork import reopen_files


def _worker_main(shard_id):
    reopen_files(shard_id)
    _open_control_channel()


def _open_control_channel():
    # REP205: a forked child minting its own socketpair leaks a kernel
    # object pair per request; the pair belongs to the coordinator.
    parent, child = socket.socketpair()
    try:
        parent.sendall(b"ping")
    finally:
        try:
            parent.close()
        finally:
            child.close()


def serve_loop(segment_name):
    reopen_files(segment_name)
    _grow_segment(segment_name)


def _grow_segment(name):
    # REP205: segment creation on the child side of the fork — the
    # segment would be invisible to the parent and never unlinked.
    return SharedMemory(name=name, create=True, size=4096)


def launch(ctx):
    # Parent-side construction: NOT flagged — launch() is unreachable
    # from any fork entrypoint.
    process = ctx.Process(target=serve_loop, args=("seg0",), daemon=True)
    process.start()
    return process
