"""A shard worker reopens its inherited page files before serving.

A forked worker inherits the coordinator's file objects, and with them
the file offset every sibling shares; a long-lived daemon reading
through them would race its siblings' seeks.  ``_worker_main`` runs
in-process here, over a socketpair and a hand-set ``_INHERITED``, so
the reopen is observable on the very store objects the worker serves.
"""

import socket

import pytest

from repro.blobworld import build_corpus
from repro.serving import ShardedService
from repro.serving import worker
from repro.serving.protocol import FramedChannel
from repro.storage.fork import store_chain


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(num_blobs=80, num_images=16, seed=11)


def test_worker_main_reopens_every_file_backed_layer(corpus):
    svc = ShardedService.build(corpus, 1, page_size=4096)
    shard = svc.shards[0]
    parent_sock, child_sock = socket.socketpair()
    child_sock.settimeout(30)    # a worker that never sees "exit" fails
    layers = [layer for layer in store_chain(shard["tree"].store)
              if getattr(layer, "_file", None) is not None]
    inherited = [layer._file for layer in layers]
    try:
        FramedChannel(parent_sock).send({"op": "exit"})
        worker._INHERITED = {
            "shards": {0: {"tree": shard["tree"], "conn": child_sock}},
            "reduced": svc.reduced,
        }
        worker._worker_main(0)
        assert layers
        for layer, old in zip(layers, inherited):
            assert layer._file is not old, \
                f"{type(layer).__name__} still serves its inherited file"
    finally:
        worker._INHERITED = {}
        parent_sock.close()
        child_sock.close()
        svc.close()              # closes each layer's reopened file
        for old in inherited:
            old.close()
