"""Node-splitting heuristics shared by the rectangle-based extensions.

Guttman's quadratic split [10] is the paper's baseline R-tree behaviour;
the variance split is the SS-tree's coordinate-variance heuristic [21].
Both take the stacked ``lo``/``hi`` footprint bounds or centers of an
overflowing node's entries and return the two groups as index lists,
so every extension (R-tree, aMAP, JB, XJB, SR-tree) can reuse them on
its own predicate's footprint.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def quadratic_split(los: np.ndarray, his: np.ndarray,
                    min_entries: int) -> Tuple[List[int], List[int]]:
    """Guttman's quadratic split.

    ``los``/``his`` are the ``(n, dim)`` entry bounds (equal for
    points).  Picks the pair of entries whose combined bounding box
    wastes the most volume as seeds, then assigns remaining entries to
    the group whose bounding box needs the smaller enlargement, forcing
    assignment when a group must absorb everything left to reach
    ``min_entries``.
    """
    n = len(los)
    if n < 2:
        raise ValueError("cannot split fewer than two entries")
    min_entries = min(min_entries, n // 2)

    vols = np.prod(his - los, axis=1)

    # PickSeeds: maximize dead volume of the pair's bounding box,
    # vectorized over all O(n^2) pairs.
    pair_lo = np.minimum(los[:, None, :], los[None, :, :])
    pair_hi = np.maximum(his[:, None, :], his[None, :, :])
    pair_vol = np.prod(pair_hi - pair_lo, axis=2)
    waste = pair_vol - vols[:, None] - vols[None, :]
    np.fill_diagonal(waste, -np.inf)
    seed_a, seed_b = np.unravel_index(int(np.argmax(waste)), waste.shape)

    group_a = [seed_a]
    group_b = [seed_b]
    a_lo, a_hi = los[seed_a].copy(), his[seed_a].copy()
    b_lo, b_hi = los[seed_b].copy(), his[seed_b].copy()
    remaining = [i for i in range(n) if i not in (seed_a, seed_b)]

    def growth(box_lo, box_hi, idx):
        grown = np.prod(np.maximum(box_hi, his[idx])
                        - np.minimum(box_lo, los[idx]), axis=1)
        return grown - np.prod(box_hi - box_lo)

    while remaining:
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break
        # PickNext: the entry with the strongest preference.
        idx_arr = np.array(remaining)
        growth_a = growth(a_lo, a_hi, idx_arr)
        growth_b = growth(b_lo, b_hi, idx_arr)
        pos = int(np.argmax(np.abs(growth_a - growth_b)))
        pick = remaining.pop(pos)
        ga, gb = growth_a[pos], growth_b[pos]
        vol_a = np.prod(a_hi - a_lo)
        vol_b = np.prod(b_hi - b_lo)
        if ga < gb or (ga == gb and vol_a < vol_b) \
                or (ga == gb and vol_a == vol_b
                    and len(group_a) <= len(group_b)):
            group_a.append(pick)
            a_lo = np.minimum(a_lo, los[pick])
            a_hi = np.maximum(a_hi, his[pick])
        else:
            group_b.append(pick)
            b_lo = np.minimum(b_lo, los[pick])
            b_hi = np.maximum(b_hi, his[pick])

    return group_a, group_b


def variance_split(centers: np.ndarray,
                   min_entries: int) -> Tuple[np.ndarray, np.ndarray]:
    """SS-tree split: sort along the axis of maximum center variance and
    cut at the position minimizing the two sides' summed variance."""
    n = len(centers)
    if n < 2:
        raise ValueError("cannot split fewer than two entries")
    min_entries = min(min_entries, n // 2)
    axis = int(np.argmax(centers.var(axis=0)))
    order = np.argsort(centers[:, axis], kind="stable")
    sorted_centers = centers[order]

    best_cut, best_score = None, np.inf
    for cut in range(min_entries, n - min_entries + 1):
        left = sorted_centers[:cut]
        right = sorted_centers[cut:]
        score = left.var(axis=0).sum() * len(left) \
            + right.var(axis=0).sum() * len(right)
        if score < best_score:
            best_score, best_cut = score, cut
    return order[:best_cut], order[best_cut:]
