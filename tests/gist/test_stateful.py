"""Stateful differential testing: the GiST vs a brute-force model.

Hypothesis drives random interleavings of inserts, deletes, and k-NN
queries (at grid points, where ties abound, and between them) against
both the tree and a plain dict of vectors; every answer must be the
model's canonical ``(distance, rid)`` top k and every step must
preserve the tree invariants.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.ams import RTreeExtension
from repro.core.xjb import XJBExtension
from repro.gist import GiST, validate_tree

from tests.gist.oracle import brute_canonical

_COORD = st.integers(-40, 40)
_POINT = st.tuples(_COORD, _COORD)


class TreeModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = GiST(RTreeExtension(2), page_size=2048)
        self.model = {}
        self.next_rid = 0

    # -- operations ----------------------------------------------------

    @rule(p=_POINT)
    def insert(self, p):
        key = np.array(p, dtype=np.float64)
        self.tree.insert(key, self.next_rid)
        self.model[self.next_rid] = key
        self.next_rid += 1

    @rule(data=st.data())
    def delete_existing(self, data):
        if not self.model:
            return
        rid = data.draw(st.sampled_from(sorted(self.model)))
        assert self.tree.delete(self.model[rid], rid)
        del self.model[rid]

    @rule(p=_POINT)
    def delete_missing(self, p):
        assert not self.tree.delete(np.array(p, dtype=np.float64) + 0.5,
                                    10 ** 9)

    @rule(p=_POINT, k=st.integers(1, 8), offset=st.sampled_from([0.0, 0.25]))
    def knn_agrees(self, p, k, offset):
        q = np.array(p, dtype=np.float64) + offset
        got = self.tree.knn(q, k)
        assert len(got) == min(k, len(self.model))
        if not self.model:
            return
        rids = np.array(sorted(self.model))
        pts = np.stack([self.model[r] for r in rids])
        assert got == brute_canonical(pts, rids, q, k)

    # -- invariants ------------------------------------------------------

    @invariant()
    def tree_is_structurally_sound(self):
        validate_tree(self.tree, expected_size=len(self.model))


TestTreeModel = TreeModelMachine.TestCase
TestTreeModel.settings = settings(max_examples=25,
                                  stateful_step_count=40,
                                  deadline=None)


class XJBModelMachine(TreeModelMachine):
    """The same machine over an XJB tree (bitten predicates + gap
    split), whose maintenance paths are the future-work code."""

    def __init__(self):
        RuleBasedStateMachine.__init__(self)
        self.tree = GiST(XJBExtension(2, x=3), page_size=2048)
        self.model = {}
        self.next_rid = 0


TestXJBModel = XJBModelMachine.TestCase
TestXJBModel.settings = settings(max_examples=15,
                                 stateful_step_count=30,
                                 deadline=None)
