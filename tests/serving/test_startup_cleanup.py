"""A shard whose fork fails must not strand its socketpair fds.

``ShardedService.start`` is the only place the repo forks; this pins
its failure path: both socketpair legs are closed before the error
propagates, and no handle is registered for the failed shard.
"""

import socket
from types import SimpleNamespace

import pytest

from repro.blobworld import build_corpus
from repro.serving import ShardedService, coordinator


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(num_blobs=80, num_images=16, seed=11)


def test_failed_fork_cleans_up_shard_kernel_objects(corpus, monkeypatch):
    svc = ShardedService.build(corpus, 1, page_size=4096)
    try:
        socks_made = []
        real_socketpair = socket.socketpair

        def recording_socketpair(*args, **kwargs):
            pair = real_socketpair(*args, **kwargs)
            socks_made.extend(pair)
            return pair

        monkeypatch.setattr(coordinator.socket, "socketpair",
                            recording_socketpair)

        class _FailingProcess:
            def __init__(self, *args, **kwargs):
                pass

            def start(self):
                raise RuntimeError("fork refused")

            def is_alive(self):
                return False

        ctx_stub = SimpleNamespace(Process=_FailingProcess)
        import multiprocessing
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda kind: ctx_stub)
        monkeypatch.setattr(coordinator, "fork_available", lambda: True)

        with pytest.raises(RuntimeError, match="fork refused"):
            svc.start()

        # Both socketpair legs closed — nothing survives the failed
        # shard.
        assert len(socks_made) == 2
        assert all(sock.fileno() == -1 for sock in socks_made)
        assert svc.handles == []
    finally:
        svc.close()
