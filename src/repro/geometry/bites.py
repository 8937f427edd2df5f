"""Corner "bites": the geometry behind the JB and XJB bounding predicates.

The paper observes (section 5, Figures 9-12) that nearest-neighbor query
spheres most often clip the *corners* of minimum bounding rectangles, and
that those corners are frequently empty of data.  A *bite* is the largest
rectangular box, anchored at an MBR corner, that contains no data; a
JB/XJB predicate is an MBR minus a set of such corner boxes.

Bites are arrays throughout.  :func:`carve_rows` carves ``G`` groups at
once and returns ``(lo, hi, keep, inners)``: each group's MBR, which of
its ``2**dim`` corners (in corner-mask order) carve a bite, and each
corner's inner point (the paper's "internal corner").  Bit ``d`` of a
corner mask set means the corner sits at ``hi[d]``.  The predicate
codecs write these arrays as rows and read rows back as stacked bite
bounds (:meth:`repro.storage.codecs.JBCodec.bite_rows`).

Obstacles are ``(los, his)`` bound arrays: child bounding rectangles at
inner levels, and at the leaf level the keys themselves, passed as both
bounds (a point is a rect with ``lo == hi``).  A bite may not meet any
obstacle.

Bites are *half-open*: boxes closed on the faces they share with the MBR
boundary and open on their inner faces (:func:`in_bites`).  Data lying
exactly on an inner face therefore remains covered, while data on the
MBR boundary inside a candidate bite's footprint correctly blocks the
carve.  This makes every bitten rect a conservative bounding predicate —
it never excludes covered data — which is what keeps nearest-neighbor
search over JB/XJB trees exact.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

#: Default cap on nibbling stops examined per dimension per corner.  The
#: cap bounds construction cost on pathologically sparse corners; bites are
#: overwhelmingly blocked within a few stops in practice.
DEFAULT_MAX_STEPS = 24

#: The carve constructions :func:`carve_rows` runs.
BITE_METHODS = ("nibble", "sweep", "probe")


def in_bites(p: np.ndarray, blo: np.ndarray, bhi: np.ndarray,
             blow: np.ndarray) -> np.ndarray:
    """Which stacked half-open bites hold ``p``, over the last axis.

    ``blo``/``bhi`` are bite bounds and ``blow`` the per-dimension flags
    that are True where the bite's corner is on the low face: there the
    bite is closed at ``blo`` and open at ``bhi``, elsewhere the reverse.
    """
    return np.all(np.where(blow, (p >= blo) & (p < bhi),
                           (p > blo) & (p <= bhi)), axis=-1)


def _corner_low_table(dim: int) -> np.ndarray:
    """``(2**dim, dim)`` table: True where corner ``mask`` is on the low
    face of dimension ``d`` (bit ``d`` clear)."""
    masks = np.arange(1 << dim)[:, None]
    return (masks >> np.arange(dim)[None, :] & 1) == 0


def _sweep_corners(a_low: np.ndarray, a_high: np.ndarray,
                   extent: np.ndarray, low: np.ndarray):
    """The sweep of :func:`_batched_sweep_bites` for every corner of
    ``G`` boxes at once.

    ``a_low``/``a_high`` are the ``(G, n, dim)`` inward obstacle
    distances from the low and high faces of each box, ``extent`` the
    ``(G, dim)`` box extents, ``low`` the :func:`_corner_low_table`.
    Returns ``(best_s, best_vol)`` shaped ``(G, M, dim)`` / ``(G, M)`` —
    bit-identical to sweeping each corner's expanded distance row
    (``_sweep_rows``, the oracle in ``tests/geometry/test_batched_sweep.py``).

    The factoring: a corner's distance row is a per-dimension pick
    between the shared ``a_low``/``a_high`` columns, and its stable sort
    order for sweep dimension ``d`` depends only on which face of ``d``
    it sits on.  So per sweep dimension there are two sort orders, each
    with ``2 * dim`` sorted/clipped/prefix-minimum columns shared by the
    half of the corners on that face.  A corner's volume scan is the
    product of its columns in dimension order, so corners that agree on
    dimensions ``0..e`` share that prefix of the product: each step
    doubles the partial products instead of starting 2**dim scans.
    """
    G, n, dim = a_low.shape
    M = low.shape[0]
    # Column 2 * e + v is dimension e seen from its low (v = 0) or high
    # (v = 1) face; columns lead, so each step runs over (G, n) planes.
    stacked = np.empty((2 * dim, G, n))
    stacked[0::2] = a_low.transpose(2, 0, 1)
    stacked[1::2] = a_high.transpose(2, 0, 1)
    ext2 = np.repeat(extent.T, 2, axis=0)[:, :, None]
    column = 2 * np.arange(dim) + ~low              # (M, dim)
    combos = np.arange(M // 2)
    rows = np.arange(G)[None, :, None]
    best_vol = np.zeros((M, G))
    best_s = np.zeros((M, G, dim))
    for d in range(dim):
        for side in (0, 1):
            own = 2 * d + side
            # The corners on this face of d, ordered so that a later
            # dimension's bit is the more significant one.
            ids = ((combos >> d) << (d + 1) | side << d
                   | combos & ((1 << d) - 1))
            order = np.argsort(stacked[own], axis=1, kind="stable")
            cuts = np.take_along_axis(stacked, order[None], axis=2)
            np.minimum(cuts, ext2, out=cuts)
            # s[c, g, i]: cut after the first i obstacles — the prefix
            # minimum in every column except the sweep dimension's own,
            # which reaches obstacle i itself (the extent at i == n).
            s = np.empty((2 * dim, G, n + 1))
            s[:, :, :1] = ext2
            np.minimum.accumulate(cuts, axis=2, out=s[:, :, 1:])
            s[own, :, :n] = cuts[own]
            s[own, :, n] = extent[:, d]
            depth = np.clip(s, 0.0, None)
            vols = None
            for e in range(dim):
                term = depth[own:own + 1] if e == d else depth[2 * e:2 * e + 2]
                vols = term if vols is None else (
                    term[:, None] * vols[None]).reshape(-1, G, n + 1)
            i = vols.argmax(axis=2)[:, :, None]     # first-maximum cuts
            vd = np.take_along_axis(vols, i, axis=2)[:, :, 0]
            improve = vd > best_vol[ids]
            best_vol[ids] = np.where(improve, vd, best_vol[ids])
            best_s[ids] = np.where(improve[:, :, None],
                                   s[column[ids][:, None, :], rows, i],
                                   best_s[ids])
    return best_s.transpose(1, 0, 2), best_vol.T


def _largest(vols: np.ndarray, valid: np.ndarray,
             max_bites: Optional[int]) -> np.ndarray:
    """``valid`` narrowed to the ``max_bites`` largest volumes per row.

    The one bite-selection rule (XJB's "top X", section 5.3): rank by
    volume, largest first, and among equal volumes the lower corner
    mask first — a stable argsort of the negated volumes along the last
    axis.  Invalid slots rank after every valid one.
    """
    if max_bites is None or max_bites >= vols.shape[-1]:
        return valid
    ranked = np.argsort(np.where(valid, -vols, np.inf), axis=-1,
                        kind="stable")[..., :max_bites]
    top = np.zeros_like(valid)
    np.put_along_axis(top, ranked, True, axis=-1)
    return top & valid


def _blocked(obs_los: np.ndarray, obs_his: np.ndarray, blo: np.ndarray,
             bhi: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``(G, M)``: does any of box g's ``(G, n, dim)`` obstacles meet its
    half-open corner-m bite?

    A bite starts on its corner's own faces and no obstacle reaches
    outside the box, so only the bite's inner face can part them: one
    comparison per coordinate, against the obstacle bound that faces
    the corner.
    """
    hit = np.ones(blo.shape[:2] + obs_los.shape[1:2], dtype=bool)
    for d in range(low.shape[1]):
        lows, highs = np.flatnonzero(low[:, d]), np.flatnonzero(~low[:, d])
        hit[:, lows] &= obs_los[:, None, :, d] < bhi[:, lows, d, None]
        hit[:, highs] &= obs_his[:, None, :, d] > blo[:, highs, d, None]
    return hit.any(axis=2)


def _batched_sweep_bites(lo: np.ndarray, hi: np.ndarray,
                         obs_los: np.ndarray, obs_his: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Best sweep bite at every corner of ``G`` boxes in one kernel.

    ``lo``/``hi`` are ``(G, dim)`` box bounds; ``obs_los``/``obs_his``
    the ``(G, n, dim)`` obstacle bounds, every obstacle inside its box.
    Returns ``(keep, inners)``: the ``(G, M)`` corners that carve a
    bite (positive volume, no obstacle met) and the ``(G, M, dim)``
    inner points.

    For each sweep dimension ``d`` a corner's obstacles are sorted by
    distance along ``d``; cutting after the first ``i`` of them yields a
    candidate bite reaching the ``i``-th obstacle's coordinate in ``d``
    and, in every other dimension, the prefix minimum of those ``i``
    obstacles (so none of them falls strictly inside).  The maximum-
    volume candidate over all dimensions and cuts wins.  Unlike the
    paper's squarish nibble, this finds deep slab-shaped bites — the
    "efficient algorithm for constructing a better JB BP" the paper's
    footnote 7 reserves for the final version.  Each box carves alone,
    bit-identically to the one-corner-at-a-time sweep kept as the oracle
    in ``tests/geometry/bite_oracle.py``, so any subset of boxes may be
    batched.
    """
    low = _corner_low_table(obs_los.shape[2])
    extent = hi - lo
    # Distance inward from each corner: on a low face the obstacle's
    # low bound blocks first, on a high face its high bound (the two
    # coincide for point obstacles).
    a_low = obs_los - lo[:, None, :]
    a_high = hi[:, None, :] - obs_his
    best_s, best_vol = _sweep_corners(a_low, a_high, extent, low)

    corner = np.where(low[None], lo[:, None, :], hi[:, None, :])
    sign = np.where(low, 1.0, -1.0)
    inners = corner + sign[None] * np.clip(best_s, 0.0, extent[:, None, :])
    blo = np.minimum(corner, inners)
    bhi = np.maximum(corner, inners)
    keep = ((best_vol > 0.0) & ~np.any(bhi <= blo, axis=2)
            & ~_blocked(obs_los, obs_his, blo, bhi, low))
    return keep, inners


#: float budget per batched carve kernel (~16 MB of f8); groups larger
#: than this are processed in slices to bound peak temporary memory.
_BATCH_FLOAT_BUDGET = 2 << 20


def carve_rows(los: np.ndarray, his: np.ndarray,
               max_bites: Optional[int] = None,
               max_steps: int = DEFAULT_MAX_STEPS,
               method: str = "sweep") -> Tuple[np.ndarray, ...]:
    """The bitten rects bounding ``G`` same-sized obstacle groups.

    ``los``/``his`` are ``(G, n, dim)`` obstacle bounds (leaf keys pass
    one array twice).  Returns ``(lo, hi, keep, inners)``: the ``(G,
    dim)`` MBRs, the ``(G, 2**dim)`` corners that keep a bite and the
    ``(G, 2**dim, dim)`` inner points — the arrays the JB/XJB codecs
    write as a predicate block.  ``method`` is one of
    :data:`BITE_METHODS`: ``"sweep"`` (the default, one kernel across
    all groups and corners), ``"nibble"`` (the paper's Figure 13
    round-robin heuristic, :func:`_nibble`) or ``"probe"`` (the
    workload-oriented set cover of the paper's future-work objective,
    :func:`_probe`).  ``max_bites=None`` keeps every corner's bite (the
    JB predicate); otherwise only the ``max_bites`` largest (XJB,
    section 5.3).  Every group carves alone, so any subset of groups
    may be batched.
    """
    los = np.asarray(los, dtype=np.float64)
    his = np.asarray(his, dtype=np.float64)
    G, n, dim = los.shape
    lo, hi = los.min(axis=1), his.max(axis=1)
    if method == "sweep":
        chunk = max(1, _BATCH_FLOAT_BUDGET // ((1 << dim) * max(n, 1) * dim))
        parts = [_batched_sweep_bites(lo[g:g + chunk], hi[g:g + chunk],
                                      los[g:g + chunk], his[g:g + chunk])
                 for g in range(0, G, chunk)]
    else:
        carve = _nibble if method == "nibble" else _probe
        parts = [tuple(part[None] for part in
                       carve(lo[g], hi[g], los[g], his[g], max_steps))
                 for g in range(G)]
    keep = np.concatenate([part[0] for part in parts])
    inners = np.concatenate([part[1] for part in parts])
    keep = _largest(bite_volumes(lo, hi, inners), keep, max_bites)
    return lo, hi, keep, inners


def bite_volumes(lo: np.ndarray, hi: np.ndarray,
                 inners: np.ndarray) -> np.ndarray:
    """``(G, M)`` volumes of the boxes between each corner of the ``(G,
    dim)`` MBRs and its inner point."""
    low = _corner_low_table(lo.shape[1])
    corner = np.where(low[None], lo[:, None, :], hi[:, None, :])
    return np.prod(np.maximum(corner, inners) - np.minimum(corner, inners),
                   axis=2)


def _meets(corner: np.ndarray, inner: np.ndarray, los: np.ndarray,
           his: np.ndarray, low: np.ndarray) -> bool:
    """Does any obstacle meet the half-open bite from ``corner`` (on the
    faces ``low`` flags) to ``inner``?  :func:`_blocked`'s rule for one
    bite, spelled apart because the nibble asks it at every trial step,
    where the batched form's indexing tripled the nibble's build time."""
    reach = np.where(low, los < np.maximum(corner, inner),
                     his > np.minimum(corner, inner))
    return bool(reach.all(axis=1).any())


def _nibble(lo: np.ndarray, hi: np.ndarray, los: np.ndarray,
            his: np.ndarray, max_steps: int
            ) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's Figure 13 at every corner of one box.

    Each dimension in turn steps its inner face one obstacle stop
    further from the corner (the obstacles' facing bounds, then the far
    face) until a step would let an obstacle in; at most ``max_steps``
    stops per dimension.  Returns ``(keep, inners)`` over the corners;
    a bite whose inner point meets its corner in some dimension is
    empty.
    """
    dim = len(lo)
    table = _corner_low_table(dim)
    keep = np.zeros(len(table), dtype=bool)
    inners = np.empty((len(table), dim))
    for mask, low in enumerate(table):
        corner = np.where(low, lo, hi)
        stops = []
        for d in range(dim):
            if low[d]:
                vals = np.unique(los[:, d])
                vals = np.append(vals[vals > lo[d]], hi[d])
            else:
                vals = np.unique(his[:, d])
                vals = np.append(vals[vals < hi[d]][::-1], lo[d])
            stops.append(vals[:max_steps])

        how_far = [0] * dim          # index into stops[d]; 0 = corner itself
        done = [False] * dim

        def inner_point() -> np.ndarray:
            out = corner.copy()
            for d in range(dim):
                if how_far[d] > 0:
                    out[d] = stops[d][how_far[d] - 1]
            return out

        while not all(done):
            for d in range(dim):
                if done[d]:
                    continue
                if how_far[d] >= len(stops[d]):
                    done[d] = True
                    continue
                how_far[d] += 1
                trial = inner_point()
                if not np.any(trial == corner) and _meets(
                        corner, trial, los, his, low):
                    how_far[d] -= 1
                    done[d] = True

        inners[mask] = inner_point()
        keep[mask] = not np.any(inners[mask] == corner)
    return keep, inners


def _greedy_box(extent: np.ndarray, c: np.ndarray, order,
                init_frac: float) -> np.ndarray:
    """Maximal empty corner box for one dimension-priority order.

    ``c`` holds obstacle distances from the corner.  Starting from a
    small seed box, each dimension in ``order`` extends as far as the
    obstacles inside the current cross-section allow; the result is
    valid because the last-processed dimension's cut sees the final
    cross-section (see the proof sketch in DESIGN.md).
    """
    dim = len(extent)
    s = extent * init_frac
    for d in order:
        inside = np.ones(len(c), dtype=bool)
        for e in range(dim):
            if e != d:
                inside &= c[:, e] < s[e]
        cut = c[inside, d].min() if inside.any() else extent[d]
        s[d] = min(max(float(cut), 0.0), extent[d])
    return s


def _probe(lo: np.ndarray, hi: np.ndarray, los: np.ndarray,
           his: np.ndarray, max_steps: int, probes_per_face: int = 12,
           seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Bites chosen to cover query graze points (paper section 8).

    The paper's future-work objective asks for "the rectangle(s) that
    intersect with a minimal number of spheres whose centroids are
    outside the rectangle(s)".  NN query spheres graze a predicate
    through its faces, so we scatter probe points over the MBR faces,
    generate many maximal empty corner boxes per corner (greedy
    expansions under different dimension priorities plus the sweep
    candidate) and greedily set-cover the probes with at most one
    bite per corner — the JB storage format.  Returns ``(keep,
    inners)`` over the corners.
    """
    dim = len(lo)
    extent = hi - lo
    rng = np.random.default_rng(seed)

    probes = []
    for d in range(dim):
        for side in (0, 1):
            face = lo + rng.random((probes_per_face, dim)) * extent
            face[:, d] = lo[d] if side == 0 else hi[d]
            probes.append(face)
    probes = np.concatenate(probes)

    orders = [np.roll(np.arange(dim), k) for k in range(dim)]
    orders += [rng.permutation(dim) for _ in range(4)]

    sweep_keep, sweep_inners = _batched_sweep_bites(
        lo[None], hi[None], los[None], his[None])
    # per corner: (inner, probes removed, volume) of every candidate
    corner_candidates = {}
    for mask, low in enumerate(_corner_low_table(dim)):
        corner = np.where(low, lo, hi)
        sign = np.where(low, 1.0, -1.0)
        c = (np.where(low, los, his) - corner) * sign
        inners = []
        for order in orders:
            for frac in (0.0, 0.05, 0.25):
                s = _greedy_box(extent, c, list(order), frac)
                if np.any(s <= 0):
                    continue
                inner = corner + sign * s
                if not np.any(inner == corner) and not _meets(
                        corner, inner, los, his, low):
                    inners.append(inner)
        if sweep_keep[0, mask]:
            inners.append(sweep_inners[0, mask])
        if inners:
            corner_candidates[mask] = [
                (inner, in_bites(probes, np.minimum(corner, inner),
                                 np.maximum(corner, inner), low),
                 float(np.prod(np.maximum(corner, inner)
                               - np.minimum(corner, inner))))
                for inner in inners]

    covered = np.zeros(len(probes), dtype=bool)
    keep = np.zeros(1 << dim, dtype=bool)
    chosen = np.zeros((1 << dim, dim))
    while corner_candidates:
        best_gain, best_mask, best = 0, None, None
        for mask, candidates in corner_candidates.items():
            for cand in candidates:
                gain = int((~covered & cand[1]).sum())
                if gain > best_gain or (gain == best_gain
                                        and best is not None
                                        and cand[2] > best[2]):
                    if gain > 0:
                        best_gain, best_mask, best = gain, mask, cand
        if best is None:
            # Probes exhausted: fall back to max volume for the rest.
            for mask, candidates in corner_candidates.items():
                keep[mask] = True
                chosen[mask] = max(candidates, key=lambda cand: cand[2])[0]
            break
        keep[best_mask] = True
        chosen[best_mask] = best[0]
        covered |= best[1]
        del corner_candidates[best_mask]
    return keep, chosen


def bitten_min_dist(lo: np.ndarray, hi: np.ndarray, blo: np.ndarray,
                    bhi: np.ndarray, blow: np.ndarray, q: np.ndarray,
                    max_pops: int = 512) -> float:
    """Euclidean distance from ``q`` to the MBR ``[lo, hi]`` minus the
    stacked half-open bites ``(blo, bhi, blow)``.

    Exact (up to the ``max_pops`` safety cap): a best-first search
    over sub-boxes of the MBR.  Pop the box with the smallest clamp
    distance; if its clamp point is outside every half-open bite,
    that distance is the answer (every other box is at least as far).
    Otherwise split the box along each dimension past the blocking
    bite's inner face — the children jointly cover everything of the
    box outside that bite — and continue.  With no bites this is the
    plain MBR distance.

    If the pop budget runs out the last popped distance is returned,
    which is still a valid lower bound, so nearest-neighbor search
    stays exact regardless.
    """
    q = np.asarray(q, dtype=np.float64)
    if not len(blo):
        return float(np.linalg.norm(np.maximum(np.maximum(lo - q, q - hi),
                                               0.0)))

    def box_dist(lo, hi) -> float:
        delta = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        return float(np.sqrt((delta * delta).sum()))

    heap: List[Tuple[float, int]] = [(box_dist(lo, hi), 0)]
    boxes = [(lo, hi)]
    seen = {(lo.tobytes(), hi.tobytes())}
    pops = 0
    while heap:
        d, idx = heapq.heappop(heap)
        pops += 1
        box_lo, box_hi = boxes[idx]
        p = np.clip(q, box_lo, box_hi)
        hits = np.flatnonzero(in_bites(p, blo, bhi, blow))
        if len(hits) == 0:
            return d
        if pops >= max_pops:
            return d          # valid lower bound; see docstring
        b = int(hits[0])
        for dd in range(len(q)):
            if blow[b, dd]:
                cut = bhi[b, dd]      # bite's open inner face
                if cut > box_hi[dd]:
                    continue
                nlo = box_lo.copy()
                nlo[dd] = max(box_lo[dd], cut)
                nhi = box_hi
            else:
                cut = blo[b, dd]
                if cut < box_lo[dd]:
                    continue
                nhi = box_hi.copy()
                nhi[dd] = min(box_hi[dd], cut)
                nlo = box_lo
            key = (nlo.tobytes(), nhi.tobytes())
            if key in seen:
                continue
            seen.add(key)
            boxes.append((nlo, nhi))
            heapq.heappush(heap, (box_dist(nlo, nhi), len(boxes) - 1))
    # The whole MBR is bitten away: the predicate covers nothing, so
    # no distance can ever reach it.
    return np.inf
