"""The bite objects the array carve in ``repro.geometry.bites`` replaced,
kept as the test oracle.

A :class:`Bite` is one half-open corner box and a :class:`BittenRect`
an MBR minus a set of them; :func:`carve_bites` carves one box's bites
one corner at a time with ``"nibble"`` (the paper's Figure 13),
``"sweep"`` (:func:`_sweep_corner` + ``blocked``, the per-corner form
of the batched kernel), ``"both"`` (the larger of the two per corner)
or ``"probe"`` (the section-8 set cover).  These are the spellings the
library ran before its bites became arrays, moved here verbatim except
that the XJB selection :func:`_top_bites` is the ``sorted`` spelling it
had before the array ranking, and ``"sweep"`` is the per-corner loop
rather than a call into the kernel.  :func:`decode` reads a JB/XJB
predicate row back as a :class:`BittenRect`, and :func:`from_carve`
turns the arrays of :func:`repro.geometry.bites.carve_rows` into them.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from tests.geometry.shapes import Rect


DEFAULT_MAX_STEPS = 24


class Bite:
    """A half-open box anchored at MBR corner ``corner_mask``.

    Bit ``d`` of the mask set means the corner sits at ``hi[d]``.
    ``inner`` is the paper's "internal corner" point: the bite occupies the
    box between the MBR corner (inclusive) and ``inner`` (exclusive).
    """

    __slots__ = ("corner_mask", "inner", "lo", "hi", "low_side")

    def __init__(self, corner_mask: int, corner: np.ndarray,
                 inner: np.ndarray):
        self.corner_mask = int(corner_mask)
        self.inner = np.asarray(inner, dtype=np.float64)
        corner = np.asarray(corner, dtype=np.float64)
        self.lo = np.minimum(corner, self.inner)
        self.hi = np.maximum(corner, self.inner)
        dim = self.inner.shape[0]
        #: per-dimension flag: True where the corner is on the low face,
        #: i.e. the bite is closed at ``lo`` and open at ``hi``.
        self.low_side = np.array(
            [not (corner_mask >> d & 1) for d in range(dim)], dtype=bool)

    @property
    def dim(self) -> int:
        return self.inner.shape[0]

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def is_empty(self) -> bool:
        return bool(np.any(self.hi <= self.lo))

    def removes_point(self, p) -> bool:
        """Is ``p`` inside the half-open bite (hence removed from the BP)?"""
        p = np.asarray(p, dtype=np.float64)
        low_ok = (p >= self.lo) & (p < self.hi)
        high_ok = (p > self.lo) & (p <= self.hi)
        return bool(np.all(np.where(self.low_side, low_ok, high_ok)))

    def removes_points(self, pts) -> np.ndarray:
        """Vectorized :meth:`removes_point` for an ``(n, dim)`` array."""
        pts = np.asarray(pts, dtype=np.float64)
        low_ok = (pts >= self.lo) & (pts < self.hi)
        high_ok = (pts > self.lo) & (pts <= self.hi)
        return np.all(np.where(self.low_side, low_ok, high_ok), axis=1)

    def __repr__(self) -> str:
        return (f"Bite(corner=0b{self.corner_mask:b}, "
                f"inner={self.inner.tolist()})")


class _PointObstacles:
    """Nibbling obstacles given as an ``(n, dim)`` point array."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        self.points = self.los = self.his = points   # a rect with lo == hi

    def stop_values(self, d: int, low_side: bool, lo_d: float, hi_d: float,
                    max_steps: int) -> np.ndarray:
        vals = np.unique(self.points[:, d])
        if low_side:
            vals = vals[vals > lo_d]
            vals = np.append(vals, hi_d)
            return vals[:max_steps]
        vals = vals[vals < hi_d][::-1]
        vals = np.append(vals, lo_d)
        return vals[:max_steps]

    def blocked(self, bite: Bite) -> bool:
        return bool(bite.removes_points(self.points).any())


class _RectObstacles:
    """Nibbling obstacles given as child rectangles.

    Accepts either a sequence of :class:`Rect` or a pre-stacked
    ``(los, his)`` pair of ``(n, dim)`` arrays — callers that already
    hold stacked bounds (a node's memoized ``rect_bounds`` cache) skip
    the re-stacking.
    """

    def __init__(self, rects):
        if isinstance(rects, tuple):
            los, his = rects
            self.los = np.asarray(los, dtype=np.float64)
            self.his = np.asarray(his, dtype=np.float64)
        else:
            self.los = np.stack([r.lo for r in rects])
            self.his = np.stack([r.hi for r in rects])

    def stop_values(self, d: int, low_side: bool, lo_d: float, hi_d: float,
                    max_steps: int) -> np.ndarray:
        if low_side:
            # A bite from the low corner extending to t in dim d avoids
            # child r in that dim iff t <= r.lo[d]; stops are child lows.
            vals = np.unique(self.los[:, d])
            vals = vals[vals > lo_d]
            vals = np.append(vals, hi_d)
            return vals[:max_steps]
        vals = np.unique(self.his[:, d])
        vals = vals[vals < hi_d][::-1]
        vals = np.append(vals, lo_d)
        return vals[:max_steps]

    def blocked(self, bite: Bite) -> bool:
        low_ok = (self.los < bite.hi) & (self.his >= bite.lo)
        high_ok = (self.los <= bite.hi) & (self.his > bite.lo)
        hit = np.all(np.where(bite.low_side, low_ok, high_ok), axis=1)
        return bool(hit.any())


def _carve_corner(rect: Rect, mask: int, obstacles,
                  max_steps: int) -> Optional[Bite]:
    """Nibble the largest safe bite from one corner (paper Figure 13)."""
    dim = rect.dim
    corner = rect.corner(mask)
    stops = []
    for d in range(dim):
        low_side = not (mask >> d & 1)
        stops.append(obstacles.stop_values(d, low_side, rect.lo[d],
                                           rect.hi[d], max_steps))

    how_far = [0] * dim          # index into stops[d]; 0 = corner itself
    done = [False] * dim

    def inner_point(indices) -> np.ndarray:
        out = corner.copy()
        for d in range(dim):
            if indices[d] > 0:
                out[d] = stops[d][indices[d] - 1]
        return out

    while not all(done):
        for d in range(dim):
            if done[d]:
                continue
            if how_far[d] >= len(stops[d]):
                done[d] = True
                continue
            how_far[d] += 1
            trial = Bite(mask, corner, inner_point(how_far))
            if not trial.is_empty() and obstacles.blocked(trial):
                how_far[d] -= 1
                done[d] = True

    bite = Bite(mask, corner, inner_point(how_far))
    if bite.is_empty():
        return None
    return bite


def _corner_coords(rect: Rect, mask: int, proxies: np.ndarray) -> tuple:
    """Obstacle coordinates relative to a corner, as distances inward.

    Returns ``(corner, sign, extent, c)`` where ``c[j, d]`` is obstacle
    ``j``'s distance from the corner along dimension ``d``.
    """
    dim = rect.dim
    corner = rect.corner(mask)
    sign = np.array([1.0 if not (mask >> d & 1) else -1.0
                     for d in range(dim)])
    extent = rect.hi - rect.lo
    c = (proxies - corner) * sign
    return corner, sign, extent, c


def _sweep_corner(rect: Rect, mask: int,
                  proxies: np.ndarray) -> Optional[Bite]:
    """Best sweep bite at one corner.

    For each sweep dimension ``d``, sort obstacles by distance from the
    corner along ``d``; cutting after the first ``i`` obstacles yields a
    candidate bite reaching the ``i``-th obstacle's coordinate in ``d``
    and, in every other dimension, the prefix minimum of those ``i``
    obstacles (so none of them falls strictly inside).  The maximum-
    volume candidate over all dimensions and cuts wins.  Unlike the
    paper's squarish nibble, this finds deep slab-shaped bites — the
    "efficient algorithm for constructing a better JB BP" the paper's
    footnote 7 reserves for the final version.
    """
    corner, sign, extent, c = _corner_coords(rect, mask, proxies)
    dim = rect.dim
    n = len(c)
    best_vol = 0.0
    best_s = None
    for d in range(dim):
        order = np.argsort(c[:, d], kind="stable")
        sorted_c = c[order]
        # prefix[i] = min over the first i obstacles (prefix[0] = extent)
        prefix = np.empty((n + 1, dim))
        prefix[0] = extent
        np.minimum.accumulate(np.minimum(sorted_c, extent), axis=0,
                              out=prefix[1:])
        depth_d = np.empty(n + 1)
        depth_d[:n] = np.minimum(sorted_c[:, d], extent[d])
        depth_d[n] = extent[d]
        s = prefix.copy()
        s[:, d] = depth_d
        vols = np.prod(np.clip(s, 0.0, None), axis=1)
        i = int(np.argmax(vols))
        if vols[i] > best_vol:
            best_vol = float(vols[i])
            best_s = s[i]
    if best_s is None or best_vol <= 0.0:
        return None
    inner = corner + sign * np.clip(best_s, 0.0, extent)
    bite = Bite(mask, corner, inner)
    return None if bite.is_empty() else bite


def _corner_proxies(rect: Rect, mask: int, obstacles) -> np.ndarray:
    """Point proxies for the obstacles, as seen from one corner.

    A rect obstructs exactly like its corner nearest to the bite corner
    (the rest of it lies farther inward), so rect obstacles reduce to
    their near-corner points.
    """
    if isinstance(obstacles, _PointObstacles):
        return obstacles.points
    low = np.array([not (mask >> d & 1) for d in range(rect.dim)])
    return np.where(low, obstacles.los, obstacles.his)


def _greedy_box(corner: np.ndarray, sign: np.ndarray, extent: np.ndarray,
                c: np.ndarray, order, init_frac: float) -> np.ndarray:
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


def _probe_cover_bites(rect: Rect, obstacles,
                       probes_per_face: int = 12,
                       seed: int = 0) -> List[Bite]:
    """Bites chosen to cover query graze points (paper section 8).

    The paper's future-work objective asks for "the rectangle(s) that
    intersect with a minimal number of spheres whose centroids are
    outside the rectangle(s)".  NN query spheres graze a predicate
    through its faces, so we scatter probe points over the MBR faces,
    generate many maximal empty corner boxes per corner (greedy
    expansions under different dimension priorities plus the sweep
    candidates), and greedily set-cover the probes with at most one
    bite per corner — the JB storage format.
    """
    dim = rect.dim
    extent = rect.hi - rect.lo
    rng = np.random.default_rng(seed)

    probes = []
    for d in range(dim):
        for side in (0, 1):
            face = rect.lo + rng.random((probes_per_face, dim)) * extent
            face[:, d] = rect.lo[d] if side == 0 else rect.hi[d]
            probes.append(face)
    probes = np.concatenate(probes)

    orders = [np.roll(np.arange(dim), k) for k in range(dim)]
    orders += [rng.permutation(dim) for _ in range(4)]

    corner_candidates = {}
    for mask in range(1 << dim):
        prox = _corner_proxies(rect, mask, obstacles)
        corner, sign, _, c = _corner_coords(rect, mask, prox)
        candidates = []
        for order in orders:
            for frac in (0.0, 0.05, 0.25):
                s = _greedy_box(corner, sign, extent, c, list(order),
                                frac)
                if np.any(s <= 0):
                    continue
                bite = Bite(mask, corner, corner + sign * s)
                if not bite.is_empty() and not obstacles.blocked(bite):
                    candidates.append(bite)
        sweep = _sweep_corner(rect, mask, prox)
        if sweep is not None and not obstacles.blocked(sweep):
            candidates.append(sweep)
        if candidates:
            corner_candidates[mask] = candidates

    covered = np.zeros(len(probes), dtype=bool)
    chosen: List[Bite] = []
    while corner_candidates:
        best_gain, best_mask, best_bite = 0, None, None
        for mask, candidates in corner_candidates.items():
            for bite in candidates:
                gain = int((~covered & bite.removes_points(probes)).sum())
                if gain > best_gain or (gain == best_gain
                                        and best_bite is not None
                                        and bite.volume()
                                        > best_bite.volume()):
                    if gain > 0:
                        best_gain, best_mask, best_bite = gain, mask, bite
        if best_bite is None:
            # Probes exhausted: fall back to max volume for the rest.
            for mask, candidates in corner_candidates.items():
                chosen.append(max(candidates, key=lambda b: b.volume()))
            break
        chosen.append(best_bite)
        covered |= best_bite.removes_points(probes)
        del corner_candidates[best_mask]
    chosen.sort(key=lambda b: b.corner_mask)
    return chosen


def _sweep_scalar(rect: Rect, obstacles) -> List[Bite]:
    """The sweep bites carved one corner at a time."""
    bites = []
    for mask in range(1 << rect.dim):
        bite = _sweep_corner(rect, mask,
                             _corner_proxies(rect, mask, obstacles))
        if bite is not None and not obstacles.blocked(bite):
            bites.append(bite)
    return bites


def _top_bites(bites: List[Bite], max_bites: Optional[int]) -> List[Bite]:
    """Keep the ``max_bites`` largest bites (all when ``None``); equal
    volumes keep the lower corner mask (``sorted`` is stable)."""
    if max_bites is None or len(bites) <= max_bites:
        return list(bites)
    ranked = sorted(bites, key=lambda b: b.volume(), reverse=True)
    kept = set(id(b) for b in ranked[:max_bites])
    return [b for b in bites if id(b) in kept]


def decode(codec, row: np.ndarray) -> "BittenRect":
    """JB/XJB predicate ``row`` in ``codec``'s layout as a
    :class:`BittenRect`."""
    row = np.asarray(row, dtype=np.float64)
    rect = Rect(row[:codec.dim], row[codec.dim:2 * codec.dim])
    masks, inners, _, _, _, keep = (
        part[0] for part in codec.bite_rows(row[None]))
    return BittenRect(rect, [Bite(m, rect.corner(m), inner) for m, inner
                             in zip(masks[keep].tolist(), inners[keep])])


def from_carve(lo: np.ndarray, hi: np.ndarray, keep: np.ndarray,
               inners: np.ndarray) -> List["BittenRect"]:
    """The ``(lo, hi, keep, inners)`` arrays of
    :func:`repro.geometry.bites.carve_rows` as one :class:`BittenRect`
    per group."""
    out = []
    for g in range(len(lo)):
        rect = Rect(lo[g], hi[g])
        out.append(BittenRect(rect, [
            Bite(m, rect.corner(m), inners[g, m])
            for m in np.flatnonzero(keep[g]).tolist()]))
    return out


def carve_bites(rect: Rect, points=None, rects: Sequence[Rect] = None,
                max_steps: int = DEFAULT_MAX_STEPS,
                method: str = "sweep") -> List[Bite]:
    """Carve the largest safe bite from every corner of ``rect``.

    Exactly one of ``points`` (an ``(n, dim)`` array) or ``rects`` (child
    bounding rectangles) must be given, all of them inside ``rect`` (it
    is their bounding box).  ``method`` selects the
    construction: ``"nibble"`` is the paper's Figure 13 round-robin
    heuristic, ``"sweep"`` the improved slab construction
    (:func:`_sweep_corner`), ``"both"`` keeps the larger bite per
    corner, and ``"probe"`` the workload-oriented set-cover construction
    of the paper's future-work objective (:func:`_probe_cover_bites`).
    Returns the non-empty bites in corner-mask order; corners whose bite
    degenerated to zero volume are omitted.
    """
    if (points is None) == (rects is None):
        raise ValueError("pass exactly one of points= or rects=")
    if method not in ("nibble", "sweep", "both", "probe"):
        raise ValueError(f"unknown bite method {method!r}")
    if points is not None:
        obstacles = _PointObstacles(points)
    else:
        obstacles = _RectObstacles(rects)

    if method == "probe":
        return _probe_cover_bites(rect, obstacles)

    if method == "sweep":
        return _sweep_scalar(rect, obstacles)

    bites = []
    for mask in range(1 << rect.dim):
        candidates = []
        if method in ("nibble", "both"):
            nib = _carve_corner(rect, mask, obstacles, max_steps)
            if nib is not None:
                candidates.append(nib)
        if method == "both":
            prox = _corner_proxies(rect, mask, obstacles)
            sw = _sweep_corner(rect, mask, prox)
            if sw is not None and not obstacles.blocked(sw):
                candidates.append(sw)
        if candidates:
            bites.append(max(candidates, key=lambda b: b.volume()))
    return bites


class BittenRect:
    """An MBR minus a set of half-open corner bites (the JB/XJB predicate).

    The represented region is ``rect \\ union(bites)``; because bites are
    carved to avoid all covered data, the region contains every key the
    predicate bounds.
    """

    __slots__ = ("rect", "bites", "_arrays")

    def __init__(self, rect: Rect, bites: Sequence[Bite] = ()):
        self.rect = rect
        self.bites = tuple(bites)
        self._arrays = None

    def _bite_arrays(self):
        """Stacked ``(B, dim)`` bite bounds and side flags (cached)."""
        if self._arrays is None:
            self._arrays = (np.stack([b.lo for b in self.bites]),
                            np.stack([b.hi for b in self.bites]),
                            np.stack([b.low_side for b in self.bites]))
        return self._arrays

    @property
    def dim(self) -> int:
        return self.rect.dim

    # -- construction -----------------------------------------------------

    @classmethod
    def from_points(cls, points, max_bites: Optional[int] = None,
                    max_steps: int = DEFAULT_MAX_STEPS,
                    method: str = "sweep") -> "BittenRect":
        """Leaf-level predicate: MBR of ``points`` with carved bites.

        ``max_bites=None`` keeps every corner's bite (the JB predicate);
        otherwise only the ``max_bites`` largest-volume bites are kept
        (the XJB predicate, section 5.3).
        """
        rect = Rect.from_points(points)
        bites = carve_bites(rect, points=points, max_steps=max_steps,
                            method=method)
        return cls(rect, _top_bites(bites, max_bites))

    @classmethod
    def from_rects(cls, rects: Sequence[Rect],
                   max_bites: Optional[int] = None,
                   max_steps: int = DEFAULT_MAX_STEPS,
                   method: str = "sweep") -> "BittenRect":
        """Inner-level predicate: bites avoid every child rectangle."""
        rect = Rect.from_rects(rects)
        bites = carve_bites(rect, rects=rects, max_steps=max_steps,
                            method=method)
        return cls(rect, _top_bites(bites, max_bites))

    @classmethod
    def from_rect_bounds(cls, los: np.ndarray, his: np.ndarray,
                         max_bites: Optional[int] = None,
                         max_steps: int = DEFAULT_MAX_STEPS,
                         method: str = "sweep") -> "BittenRect":
        """:meth:`from_rects` from pre-stacked ``(n, dim)`` child bounds.

        Bit-identical to ``from_rects`` on the corresponding rectangles;
        callers that already hold the stacked matrices (a node's memoized
        ``rect_bounds`` cache) skip re-stacking them.
        """
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        rect = Rect(np.minimum.reduce(los), np.maximum.reduce(his))
        bites = carve_bites(rect, rects=(los, his), max_steps=max_steps,
                            method=method)
        return cls(rect, _top_bites(bites, max_bites))

    # -- predicates ----------------------------------------------------------

    def contains_point(self, p) -> bool:
        if not self.rect.contains_point(p):
            return False
        return not any(b.removes_point(p) for b in self.bites)

    def contains_points(self, pts) -> np.ndarray:
        mask = self.rect.contains_points(pts)
        for b in self.bites:
            mask &= ~b.removes_points(pts)
        return mask

    def volume(self) -> float:
        """Region volume, ignoring (rare) bite-bite overlap."""
        return max(0.0, self.rect.volume()
                   - sum(b.volume() for b in self.bites))

    def coverage_fraction(self, samples: int = 2000,
                          seed: int = 0) -> float:
        """Monte Carlo estimate of region volume / MBR volume.

        Unlike :meth:`volume`, overlapping bites are counted once, so
        this is the honest measure of how much of the box the predicate
        still covers.
        """
        if not self.bites:
            return 1.0
        rng = np.random.default_rng(seed)
        pts = self.rect.lo + rng.random((samples, self.dim)) \
            * (self.rect.hi - self.rect.lo)
        return float(self.contains_points(pts).mean())

    # -- distance ----------------------------------------------------------

    def min_dist(self, q, max_pops: int = 512) -> float:
        """Euclidean distance from ``q`` to the bitten region.

        Exact (up to the ``max_pops`` safety cap): a best-first search
        over sub-boxes of the MBR.  Pop the box with the smallest clamp
        distance; if its clamp point is outside every half-open bite,
        that distance is the answer (every other box is at least as far).
        Otherwise split the box along each dimension past the blocking
        bite's inner face — the children jointly cover everything of the
        box outside that bite — and continue.

        If the pop budget runs out the last popped distance is returned,
        which is still a valid lower bound, so nearest-neighbor search
        stays exact regardless.
        """
        q = np.asarray(q, dtype=np.float64)
        if not self.bites:
            return self.rect.min_dist(q)
        blo, bhi, blow = self._bite_arrays()
        dim = self.rect.dim

        def box_dist(lo, hi) -> float:
            delta = np.maximum(np.maximum(lo - q, q - hi), 0.0)
            return float(np.sqrt((delta * delta).sum()))

        heap: List[Tuple[float, int]] = [
            (box_dist(self.rect.lo, self.rect.hi), 0)]
        boxes = [(self.rect.lo, self.rect.hi)]
        seen = {(self.rect.lo.tobytes(), self.rect.hi.tobytes())}
        best = 0.0
        pops = 0
        while heap:
            d, idx = heapq.heappop(heap)
            best = d
            pops += 1
            lo, hi = boxes[idx]
            p = np.clip(q, lo, hi)
            inside = np.all(np.where(blow, (p >= blo) & (p < bhi),
                                     (p > blo) & (p <= bhi)), axis=1)
            hits = np.nonzero(inside)[0]
            if len(hits) == 0:
                return d
            if pops >= max_pops:
                return d          # valid lower bound; see docstring
            b = int(hits[0])
            for dd in range(dim):
                if blow[b, dd]:
                    cut = bhi[b, dd]      # bite's open inner face
                    if cut > hi[dd]:
                        continue
                    nlo = lo.copy()
                    nlo[dd] = max(lo[dd], cut)
                    nhi = hi
                else:
                    cut = blo[b, dd]
                    if cut < lo[dd]:
                        continue
                    nhi = hi.copy()
                    nhi[dd] = min(hi[dd], cut)
                    nlo = lo
                key = (nlo.tobytes(), nhi.tobytes())
                if key in seen:
                    continue
                seen.add(key)
                boxes.append((nlo, nhi))
                heapq.heappush(heap, (box_dist(nlo, nhi), len(boxes) - 1))
        # The whole MBR is bitten away: the predicate covers nothing, so
        # no distance can ever reach it.
        return np.inf

    def __repr__(self) -> str:
        return f"BittenRect({self.rect!r}, bites={len(self.bites)})"
