"""Sharded serving: a long-running multi-process query daemon.

The paper evaluates its access methods one-shot and single-process;
the serving layer composes every prior subsystem — bulk load, batched
traversal, result caching, degradation reporting — into the
long-running service the "heavy traffic from millions of users"
scenario actually needs.  Disjoint shards each run
a tree in their own forked process; a coordinator scatters query
batches, gathers canonical partials, and merges the global top-k
deterministically (see :mod:`repro.serving.partials` for why the
merge is bit-identical to an unsharded baseline).

Requests and replies cross the process boundary as framed pickles over
one socketpair per worker (:mod:`repro.serving.protocol`), and every
request takes one path through the coordinator, which keeps a small
window of request blocks in flight so shard k-NN overlaps its own
merge/rerank work.
"""

from repro.serving.coordinator import ShardedService
from repro.serving.partials import merge_topk, pack_partials, unpack_hits
from repro.serving.protocol import (ConnectionClosed, FramedChannel,
                                    ProtocolError, recv_msg, send_msg)
from repro.serving.worker import ShardServer

__all__ = [
    "ShardedService",
    "ShardServer",
    "FramedChannel",
    "merge_topk",
    "pack_partials",
    "unpack_hits",
    "send_msg",
    "recv_msg",
    "ProtocolError",
    "ConnectionClosed",
]
