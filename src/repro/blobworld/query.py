"""Blobworld querying (paper Figure 2): full ranking and the two-stage
access-method-assisted pipeline.

A *full* query compares the query blob's 218-bin histogram against every
blob in the corpus with the quadratic-form distance and returns the best
images.  The AM-assisted query instead asks an index for the ``n``
nearest blobs in the reduced space ("a quick and dirty estimate of the
top few hundred"), re-ranks only those candidates with the full
distance, and returns the top images — the goal being that the AM's top
few hundred contain the top few dozen the full ranking would pick.

Every index lookup attaches the corpus's reduced vectors to the tree as
``exact``, so a quantized (sq8) index returns the same reduced-space top
``n`` as a float64 one and stage two never knows which codec it had.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.constants import FULL_QUERY_RESULT_IMAGES
from repro.blobworld.cache import CachedBlock, QueryResultCache
from repro.blobworld.dataset import BlobCorpus


def _rank(points: np.ndarray, queries: np.ndarray,
          rows: Sequence[np.ndarray]) -> np.ndarray:
    """Each ragged 1-D candidate row stably sorted by squared distance
    from its query row, ``-1``-padded to the widest — the one rerank
    kernel for every block shape.

    One broadcast gather ``(Q, w, d) - (Q, 1, d)`` and one stable
    argsort per row.  Padding gathers the last point but carries
    ``+inf`` distance, so it sorts after every real candidate and each
    real row keeps the order (and the bits) a per-row kernel gives it.
    """
    cands = np.full((len(rows), max((len(row) for row in rows), default=0)),
                    -1, dtype=np.intp)
    for i, row in enumerate(rows):
        cands[i, :len(row)] = row
    diff = points[cands] - queries[:, None, :]
    diff *= diff
    dists = diff.sum(axis=-1)
    dists[cands < 0] = np.inf
    order = np.argsort(dists, axis=-1, kind="stable")
    return cands[np.arange(len(cands))[:, None], order]


def _top_images(ranked: np.ndarray, image_ids: np.ndarray,
                top_images: int) -> List[List[int]]:
    """Per row of distance-sorted blobs (``-1`` = padding), the first
    ``top_images`` distinct images in order of first appearance.

    On a row sorted stably by distance that *is* the ranking by
    ``(best distance, first occurrence)``: an image's first occurrence
    carries its best distance, and first occurrences appear in
    nondecreasing distance with ties in position order.  A stable sort
    of each row's images marks every first occurrence at once.
    """
    rows = np.arange(len(ranked))[:, None]
    images = np.where(ranked >= 0, image_ids[ranked], -1)
    order = np.argsort(images, axis=-1, kind="stable")
    grouped = images[rows, order]
    starts = np.ones(images.shape, dtype=bool)
    starts[:, 1:] = grouped[:, 1:] != grouped[:, :-1]
    first = np.empty_like(starts)
    first[rows, order] = starts
    first &= images >= 0
    keep = first & (np.cumsum(first, axis=-1) <= top_images)
    flat = images[keep].tolist()
    ends = np.cumsum(keep.sum(axis=-1)).tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


class BlobworldEngine:
    """Query execution over a :class:`BlobCorpus`.

    ``cache`` (optional) is a :class:`QueryResultCache` consulted by the
    two-stage entry points — :meth:`am_query` and :meth:`am_query_batch`
    share it, so a warm cache serves both identically.  The cache keys
    on query parameters only, not on the index: attach one cache per
    (engine, tree) pairing and ``invalidate()`` it when the index
    changes.
    """

    def __init__(self, corpus: BlobCorpus,
                 cache: Optional[QueryResultCache] = None):
        self.corpus = corpus
        self.cache = cache

    def check_blobs(self, blobs: Sequence[int]) -> List[int]:
        """The one ingress check of every entry point taking query blob
        ids, the sharded service's included: ``ValueError`` unless each
        is an integer in ``[0, num_blobs)``, where ``-1`` would silently
        answer for the last blob and ``2.7`` for blob 2."""
        ids = np.asarray(blobs)
        if ids.size == 0:
            return []
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(f"blob ids must be a flat sequence of "
                             f"integers, got {ids.dtype} {ids.shape}")
        out = ids.tolist()
        lo, hi, num_blobs = min(out), max(out), self.corpus.num_blobs
        if lo < 0 or hi >= num_blobs:
            raise ValueError(f"blob ids must lie in [0, {num_blobs}), "
                             f"got {lo}..{hi}")
        return out

    # -- full ranking -------------------------------------------------------

    def full_query(self, query_blob: int,
                   top_images: int = FULL_QUERY_RESULT_IMAGES) -> List[int]:
        """Rank every blob with the full quadratic-form distance."""
        query_blob, = self.check_blobs([query_blob])
        emb = self.corpus.embedded
        diff = emb - emb[query_blob]
        dists = (diff * diff).sum(axis=1)
        order = np.argsort(dists, kind="stable")
        return _top_images(order[None, :], self.corpus.image_ids,
                           top_images)[0]

    # -- reduced-space brute force (Figure 6's low-D queries) ------------------

    def reduced_query(self, query_blob: int, dims: int, num_blobs: int,
                      top_images: Optional[int] = None) -> List[int]:
        """Nearest blobs by D-dimensional Euclidean distance, re-ranked
        with the full distance (the Figure 6 configuration)."""
        query_blob, = self.check_blobs([query_blob])
        reduced = self.corpus.reduced(dims)
        diff = reduced - reduced[query_blob]
        dists = (diff * diff).sum(axis=1)
        candidates = np.argsort(dists, kind="stable")[:num_blobs]
        return self.rerank(query_blob, candidates, top_images)

    # -- AM-assisted query (Figure 2) ----------------------------------------------

    def _two_stage(self, tree, query_blobs: Sequence[int], num_blobs: int,
                   dims: int, top_images: Optional[int],
                   stage_one: Callable[[np.ndarray], List],
                   profile=None) -> List[List[int]]:
        """The one two-stage body: the cached-block pass, stage one for
        the distinct misses, one :meth:`rerank_batch` and the cache
        fill.  ``stage_one(query_vecs)`` returns one ``(distance, rid)``
        hit list per query vector: the exact reduced-space top
        ``num_blobs``, whatever the leaf codec (:meth:`_index_keys`)."""
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        query_blobs = self.check_blobs(query_blobs)
        block = CachedBlock(self.cache, [(blob, dims, num_blobs, top_images)
                                         for blob in query_blobs])
        ranked: List[List[int]] = []
        if block.misses:
            blobs = [query_blobs[i] for i in block.misses]
            reduced = self._index_keys(tree, dims)
            rows = [np.array([rid for _, rid in hits], dtype=np.intp)
                    for hits in stage_one(reduced[blobs])]
            ranked = self.rerank_batch(blobs, rows, top_images,
                                       profile=profile)
        return [list(result) for result in block.fill(ranked)]

    def am_query(self, tree, query_blob: int, num_blobs: int,
                 dims: int, top_images: Optional[int] = None) -> List[int]:
        """Two-stage query: index candidates, then full re-ranking.

        ``tree`` must index the corpus's ``dims``-dimensional reduced
        vectors with blob indices as RIDs (:meth:`_index_keys`).
        """
        return self._two_stage(
            tree, [query_blob], num_blobs, dims, top_images,
            lambda query_vecs: [tree.knn(query_vecs[0], num_blobs)])[0]

    def am_query_batch(self, tree, query_blobs: Sequence[int],
                       num_blobs: int, dims: int,
                       top_images: Optional[int] = None,
                       profile=None, planner=None) -> List[List[int]]:
        """A block of two-stage queries, each bit-identical to
        :meth:`am_query` of the same query blob: the same two-stage
        body, with stage one run once for the block's misses.

        ``planner`` (a :class:`~repro.gist.planner.QueryPlanner`)
        routes the misses to :func:`~repro.gist.batch.knn_search_batch`
        (``tree.knn`` per query) or to its flat file's scan;
        the full-distance rerank absorbs the scan's different order of
        equal-distance candidates.  ``profile`` (duck-typed:
        ``add(stage, seconds)`` and ``note_plan(plan, actual_pages)``)
        receives wall time split into traversal (page reads included)
        or scan / rerank / aggregation, and the plan counters.
        """
        return self._two_stage(
            tree, query_blobs, num_blobs, dims, top_images,
            lambda query_vecs: self._batch_stage_one(
                tree, query_vecs, num_blobs, profile, planner),
            profile)

    def _index_keys(self, tree, dims: int) -> np.ndarray:
        """Attach the ``dims``-D reduced vectors to ``tree`` as ``exact``."""
        reduced = self.corpus.reduced(dims)
        tree.exact = reduced
        return reduced

    def _batch_stage_one(self, tree, query_vecs: np.ndarray,
                         num_blobs: int, profile, planner) -> List:
        """Stage one of :meth:`am_query_batch`: the planner's flat scan,
        or the index timed as one ``traversal`` stage.  A planner-chosen
        traversal hands the tree's page reads to the plan's
        accounting."""
        from repro.gist.batch import knn_search_batch
        plan = (planner.plan_batch(len(query_vecs), num_blobs)
                if planner is not None else None)
        if plan is not None and plan.choice == "scan":
            flat = planner.flat
            pages_before = flat.pages_read
            t0 = time.perf_counter()
            hits_list = flat.knn_batch(query_vecs, num_blobs)
            if profile is not None:
                profile.add("scan", time.perf_counter() - t0)
                profile.note_plan(plan, flat.pages_read - pages_before)
            return hits_list
        reads_before = tree.stats.reads
        t0 = time.perf_counter()
        hits_list = knn_search_batch(tree, query_vecs, num_blobs)
        if profile is not None:
            profile.add("traversal", time.perf_counter() - t0)
            if plan is not None:
                profile.note_plan(plan, tree.stats.reads - reads_before)
        return hits_list

    def am_query_images(self, tree, query_blob: int, num_images: int,
                        dims: int,
                        top_images: Optional[int] = None) -> List[int]:
        """The paper's literal contract: retrieve nearest blobs until
        ``num_images`` distinct images are seen, then re-rank.

        Section 3's workload "consists of nearest neighbor queries that
        retrieve 200 images each"; the incremental cursor
        (:func:`repro.gist.nn.nn_cursor`) pulls exactly as many blobs
        as that needs, in exact reduced-space order on any leaf codec.
        """
        query_blob, = self.check_blobs([query_blob])
        reduced = self._index_keys(tree, dims)
        image_ids = self.corpus.image_ids
        seen = set()
        candidates = []
        for _, rid in tree.nn_cursor(reduced[query_blob]):
            candidates.append(rid)
            seen.add(int(image_ids[rid]))
            if len(seen) >= num_images:
                break
        return self.rerank(query_blob,
                           np.array(candidates, dtype=np.intp),
                           top_images)

    def rerank(self, query_blob: int, candidates: np.ndarray,
               top_images: Optional[int] = None) -> List[int]:
        """Order candidate blobs by full distance; return their images.
        The one-row spelling of :meth:`rerank_batch`."""
        return self._rerank([query_blob], [candidates], top_images)[0]

    def rerank_batch(self, query_blobs: Sequence[int],
                     candidate_lists: Sequence[np.ndarray],
                     top_images: Optional[int] = None,
                     profile=None) -> List[List[int]]:
        """Re-rank one 1-D candidate array per query, row for row
        bit-identical to :meth:`rerank`: ragged or uniform, the block
        is padded to its widest row and ranked by one
        ``(Q, w, full_dim)`` distance kernel."""
        return self._rerank(query_blobs, candidate_lists, top_images,
                            profile)

    def _rerank(self, query_blobs: Sequence[int],
                candidate_lists: Sequence[np.ndarray],
                top_images: Optional[int], profile=None) -> List[List[int]]:
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        query_blobs = self.check_blobs(query_blobs)
        emb = self.corpus.embedded
        t0 = time.perf_counter()
        ranked = _rank(emb, emb[query_blobs], candidate_lists)
        t1 = time.perf_counter()
        results = _top_images(ranked, self.corpus.image_ids, top_images)
        if profile is not None:
            profile.add("rerank", t1 - t0)
            profile.add("aggregation", time.perf_counter() - t1)
        return results

    # -- weighted compound queries (Figure 3's sliders) ----------------------------

    def weighted_distances(self, query_blob: int,
                           candidates: np.ndarray,
                           weights: Optional[dict] = None) -> np.ndarray:
        """Weighted compound distance over color / texture / location /
        size (the paper's Figure 3: "Color is very important, location
        is not, texture is so-so...").

        Each component distance is normalized by its corpus-wide mean so
        the weights are comparable; missing descriptors (a corpus built
        without them) simply contribute nothing.
        """
        weights = dict(weights or {})
        w_color = weights.pop("color", 1.0)
        w_texture = weights.pop("texture", 0.0)
        w_location = weights.pop("location", 0.0)
        w_size = weights.pop("size", 0.0)
        if weights:
            raise ValueError(f"unknown weight keys {sorted(weights)}")

        corpus = self.corpus
        total = np.zeros(len(candidates))
        emb = corpus.embedded
        diff = emb[candidates] - emb[query_blob]
        color = (diff * diff).sum(axis=1)
        total += w_color * color / max(self._scale("color"), 1e-12)

        if w_texture and corpus.textures is not None:
            d = corpus.textures[candidates] - corpus.textures[query_blob]
            total += w_texture * (d * d).sum(axis=1) \
                / max(self._scale("texture"), 1e-12)
        if w_location and corpus.locations is not None:
            d = corpus.locations[candidates] \
                - corpus.locations[query_blob]
            total += w_location * (d * d).sum(axis=1) \
                / max(self._scale("location"), 1e-12)
        if w_size and corpus.sizes is not None:
            d = corpus.sizes[candidates] - corpus.sizes[query_blob]
            total += w_size * d * d / max(self._scale("size"), 1e-12)
        return total

    def _scale(self, component: str) -> float:
        """Corpus-wide mean squared distance of one component (cached)."""
        cache = getattr(self, "_scales", None)
        if cache is None:
            cache = self._scales = {}
        if component not in cache:
            corpus = self.corpus
            rng = np.random.default_rng(0)
            n = corpus.num_blobs
            a = rng.integers(0, n, size=min(2000, n * 2))
            b = rng.integers(0, n, size=len(a))
            if component == "color":
                d = corpus.embedded[a] - corpus.embedded[b]
                cache[component] = float((d * d).sum(axis=1).mean())
            elif component == "texture":
                d = corpus.textures[a] - corpus.textures[b]
                cache[component] = float((d * d).sum(axis=1).mean())
            elif component == "location":
                d = corpus.locations[a] - corpus.locations[b]
                cache[component] = float((d * d).sum(axis=1).mean())
            elif component == "size":
                d = corpus.sizes[a] - corpus.sizes[b]
                cache[component] = float((d * d).mean())
            else:
                raise ValueError(f"unknown component {component!r}")
        return cache[component]

    def weighted_query(self, query_blob: int,
                       weights: Optional[dict] = None,
                       top_images: Optional[int] = None,
                       tree=None, num_blobs: int = 400,
                       dims: int = 5) -> List[int]:
        """Full weighted ranking, optionally accelerated by an index.

        Without ``tree``, every blob is scored.  With ``tree``, the
        color index supplies ``num_blobs`` candidates first (color must
        carry positive weight for that to be sound — enforced).
        """
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        query_blob, = self.check_blobs([query_blob])
        if tree is None:
            candidates = np.arange(self.corpus.num_blobs)
        else:
            if weights and weights.get("color", 1.0) <= 0:
                raise ValueError(
                    "index-assisted weighted queries need color weight "
                    "> 0 (the index covers color space)")
            reduced = self._index_keys(tree, dims)
            hits = tree.knn(reduced[query_blob], num_blobs)
            candidates = np.array([rid for _, rid in hits],
                                  dtype=np.intp)
        dists = self.weighted_distances(query_blob, candidates, weights)
        order = np.argsort(dists, kind="stable")
        return _top_images(candidates[order][None, :],
                           self.corpus.image_ids, top_images)[0]


def recall(reference_images: Sequence[int],
           retrieved_images: Sequence[int]) -> float:
    """Fraction of the reference images present in the retrieved set."""
    reference = set(reference_images)
    if not reference:
        return 1.0
    return len(reference & set(retrieved_images)) / len(reference)
