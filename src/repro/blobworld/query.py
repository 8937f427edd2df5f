"""Blobworld querying (paper Figure 2): full ranking and the two-stage
access-method-assisted pipeline.

A *full* query compares the query blob's 218-bin histogram against every
blob in the corpus with the quadratic-form distance and returns the best
images.  The AM-assisted query instead asks an index for the ``n``
nearest blobs in the reduced space ("a quick and dirty estimate of the
top few hundred"), re-ranks only those candidates with the full
distance, and returns the top images — the goal being that the AM's top
few hundred contain the top few dozen the full ranking would pick.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import FULL_QUERY_RESULT_IMAGES
from repro.blobworld.cache import QueryResultCache
from repro.blobworld.dataset import BlobCorpus


def _top_images_from_blobs_ref(blob_indices: np.ndarray,
                               blob_distances: np.ndarray,
                               image_ids: np.ndarray,
                               top_images: int) -> List[int]:
    """Scalar reference for :func:`_top_images_from_blobs`.

    Kept verbatim (dict loop, strict-`<` update, stable value sort) as
    the semantic spec the vectorized kernel is tested bit-identical
    against, ties included.
    """
    best: dict = {}
    for blob, dist in zip(blob_indices, blob_distances):
        image = int(image_ids[blob])
        if image not in best or dist < best[image]:
            best[image] = dist
    ranked = sorted(best, key=best.get)
    return ranked[:top_images]


def _top_images_from_blobs(blob_indices: np.ndarray,
                           blob_distances: np.ndarray,
                           image_ids: np.ndarray,
                           top_images: int) -> List[int]:
    """Rank images by their best (smallest-distance) blob.

    Vectorized aggregation: an image's rank key is ``(best distance,
    first occurrence position)`` — exactly what the scalar dict loop
    produces, since dict insertion order is first-occurrence order and
    Python's value sort is stable.  ``np.unique`` yields each image's
    first position, ``np.minimum.at`` folds its best distance, and one
    lexsort ranks them.
    """
    blob_indices = np.asarray(blob_indices)
    if len(blob_indices) == 0:
        return []
    images = image_ids[blob_indices]
    uniq, first_idx, inverse = np.unique(images, return_index=True,
                                         return_inverse=True)
    best = np.full(len(uniq), np.inf)
    np.minimum.at(best, inverse,
                  np.asarray(blob_distances, dtype=np.float64))
    order = np.lexsort((first_idx, best))
    return [int(i) for i in uniq[order[:top_images]]]


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

    # -- full ranking -------------------------------------------------------

    def full_query(self, query_blob: int,
                   top_images: int = FULL_QUERY_RESULT_IMAGES) -> List[int]:
        """Rank every blob with the full quadratic-form distance."""
        emb = self.corpus.embedded
        diff = emb - emb[query_blob]
        dists = (diff * diff).sum(axis=1)
        order = np.argsort(dists, kind="stable")
        return _top_images_from_blobs(order, dists[order],
                                      self.corpus.image_ids, top_images)

    # -- reduced-space brute force (Figure 6's low-D queries) ------------------

    def reduced_query(self, query_blob: int, dims: int, num_blobs: int,
                      top_images: Optional[int] = None) -> List[int]:
        """Nearest blobs by D-dimensional Euclidean distance, re-ranked
        with the full distance (the Figure 6 configuration)."""
        reduced = self.corpus.reduced(dims)
        diff = reduced - reduced[query_blob]
        dists = (diff * diff).sum(axis=1)
        candidates = np.argsort(dists, kind="stable")[:num_blobs]
        return self.rerank(query_blob, candidates, top_images)

    # -- AM-assisted query (Figure 2) ----------------------------------------------

    @staticmethod
    def _is_lossy(tree) -> bool:
        """Does the index hold quantized (lossy) leaf keys?"""
        return bool(getattr(getattr(tree, "leaf_codec", None),
                            "lossy", False))

    @staticmethod
    def _overscan(num_blobs: int) -> int:
        """Candidates to pull from a lossy index for ``num_blobs``.

        A quantized index ranks leaf entries by admissible cell lower
        bounds, so the true reduced-space top ``num_blobs`` can sit a
        little below rank ``num_blobs``; pulling extra candidates and
        re-ranking them exactly (:meth:`_refine_candidates`) absorbs
        the slack.  The margin is generous — quantization cells are a
        1/255 slice of each leaf's extent, so real displacement is
        tiny — and page-granular reads make it nearly free.
        """
        return num_blobs + max(64, num_blobs // 2)

    def _refine_candidates(self, rids: np.ndarray, query_vec: np.ndarray,
                           reduced: np.ndarray,
                           num_blobs: int) -> np.ndarray:
        """Exact reduced-space top ``num_blobs`` of an overscanned
        candidate list (the VA-file refinement step): the engine holds
        the exact vectors in memory, so quantization error never
        reaches stage two."""
        diff = reduced[rids] - query_vec
        d = (diff * diff).sum(axis=1)
        order = np.argsort(d, kind="stable")[:num_blobs]
        return rids[order]

    def am_query(self, tree, query_blob: int, num_blobs: int,
                 dims: int, top_images: Optional[int] = None) -> List[int]:
        """Two-stage query: index candidates, then full re-ranking.

        ``tree`` must index the corpus's ``dims``-dimensional reduced
        vectors with blob indices as RIDs.  Quantized (sq8) indexes are
        overscanned and exactly refined first, so the candidates fed to
        the rerank match the reduced-space top ``num_blobs``.
        """
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        key = (int(query_blob), dims, num_blobs, top_images)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return list(hit)
        reduced = self.corpus.reduced(dims)
        query_vec = reduced[query_blob]
        lossy = self._is_lossy(tree)
        fetch = self._overscan(num_blobs) if lossy else num_blobs
        hits = tree.knn(query_vec, fetch)
        candidates = np.array([rid for _, rid in hits], dtype=np.intp)
        if lossy:
            candidates = self._refine_candidates(candidates, query_vec,
                                                 reduced, num_blobs)
        result = self.rerank(query_blob, candidates, top_images)
        if self.cache is not None:
            self.cache.put(key, tuple(result))
        return result

    def am_query_batch(self, tree, query_blobs: Sequence[int],
                       num_blobs: int, dims: int,
                       top_images: Optional[int] = None,
                       profile=None, planner=None) -> List[List[int]]:
        """A block of two-stage queries, each bit-identical to
        :meth:`am_query` of the same query blob.

        Stage one routes the whole block through
        :func:`~repro.gist.batch.knn_search_batch` (per-page decode
        once per block); stage two re-ranks every candidate list with
        one full-dimension distance
        kernel and the vectorized image-aggregation kernel.  ``profile``
        (duck-typed: ``add(stage, seconds)`` and ``note_plan(plan,
        actual_pages)``) receives per-stage wall time split into
        traversal (page reads included) or scan / rerank / aggregation.

        ``planner`` (a :class:`~repro.gist.planner.QueryPlanner`)
        cost-routes each miss batch: batches it prices below a flat
        scan keep the index path above; the rest run its flat file's
        vectorized scan kernel instead (stage ``scan``).  Either way
        the candidates feed the same rerank, so the returned images
        match — scan-routed batches may order equal-distance
        candidates differently, which the full-distance rerank
        absorbs.  Decisions and page estimates land in the profile's
        plan counters.
        """
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        query_blobs = [int(q) for q in query_blobs]
        results: List[Optional[List[int]]] = [None] * len(query_blobs)
        misses: List[int] = []
        duplicates: List[Tuple[int, tuple]] = []
        if self.cache is not None:
            # Within one batch, repeats of an uncached key compute once;
            # the duplicates resolve from the cache afterwards — exactly
            # what a sequential loop over the shared cache would do.
            pending: set = set()
            for i, blob in enumerate(query_blobs):
                key = (blob, dims, num_blobs, top_images)
                if key in pending:
                    duplicates.append((i, key))
                    continue
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = list(hit)
                else:
                    pending.add(key)
                    misses.append(i)
        else:
            misses = list(range(len(query_blobs)))
        if misses:
            query_vecs = self.corpus.reduced(dims)[
                [query_blobs[i] for i in misses]]
            plan = (planner.plan_batch(len(misses), num_blobs)
                    if planner is not None else None)
            if plan is not None and plan.choice == "scan":
                flat = planner.flat
                pages_before = flat.pages_read
                t0 = time.perf_counter()
                hits_list = flat.knn_batch(query_vecs, num_blobs)
                if profile is not None:
                    profile.add("scan", time.perf_counter() - t0)
                    profile.note_plan(plan,
                                      flat.pages_read - pages_before)
            else:
                hits_list = self._tree_stage(tree, query_vecs, num_blobs,
                                             profile, plan)
            candidate_lists = [
                np.fromiter((rid for _, rid in hits), dtype=np.intp,
                            count=len(hits))
                for hits in hits_list]
            if self._is_lossy(tree) \
                    and not (plan is not None and plan.choice == "scan"):
                reduced = self.corpus.reduced(dims)
                candidate_lists = [
                    self._refine_candidates(c, q, reduced, num_blobs)
                    for c, q in zip(candidate_lists, query_vecs)]
            ranked = self.rerank_batch([query_blobs[i] for i in misses],
                                       candidate_lists, top_images,
                                       profile=profile)
            for i, result in zip(misses, ranked):
                results[i] = result
                if self.cache is not None:
                    self.cache.put(
                        (query_blobs[i], dims, num_blobs, top_images),
                        tuple(result))
        for i, key in duplicates:
            results[i] = list(self.cache.get(key))
        return results

    def _tree_stage(self, tree, query_vecs, num_blobs: int,
                    profile, plan) -> List:
        """Stage one over the index, timed as one ``traversal`` stage
        (page reads, CRC and decode included).

        Lossy (quantized) indexes are asked for overscanned candidate
        lists; the caller refines them back to ``num_blobs`` exactly.
        When a planner chose this path (``plan`` is not None), actual
        page reads are counted through a store listener so the
        profile's estimated-vs-actual page accounting stays honest.
        """
        from repro.gist.batch import knn_search_batch
        if self._is_lossy(tree):
            num_blobs = self._overscan(num_blobs)
        pages = [0]
        listening = plan is not None \
            and hasattr(tree.store, "add_listener")
        if listening:
            def _count(page_id: int, level: int) -> None:
                pages[0] += 1
            tree.store.add_listener(_count)
        t0 = time.perf_counter()
        try:
            hits_list = knn_search_batch(tree, query_vecs, num_blobs)
        finally:
            if listening:
                tree.store.remove_listener(_count)
        if profile is not None:
            profile.add("traversal", time.perf_counter() - t0)
            if plan is not None:
                profile.note_plan(plan, pages[0])
        return hits_list

    def am_query_images(self, tree, query_blob: int, num_images: int,
                        dims: int,
                        top_images: Optional[int] = None) -> List[int]:
        """The paper's literal contract: retrieve nearest blobs until
        ``num_images`` distinct images are seen, then re-rank.

        Section 3's workload "consists of nearest neighbor queries that
        retrieve 200 images each"; the incremental cursor
        (:func:`repro.gist.nn.nn_cursor`) pulls exactly as many blobs
        as that needs.
        """
        query_vec = self.corpus.reduced(dims)[query_blob]
        image_ids = self.corpus.image_ids
        seen = set()
        candidates = []
        for _, rid in tree.nn_cursor(query_vec):
            candidates.append(rid)
            seen.add(int(image_ids[rid]))
            if len(seen) >= num_images:
                break
        return self.rerank(query_blob,
                           np.array(candidates, dtype=np.intp),
                           top_images)

    def rerank(self, query_blob: int, candidates: np.ndarray,
               top_images: Optional[int] = None) -> List[int]:
        """Order candidate blobs by full distance; return their images."""
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        emb = self.corpus.embedded
        diff = emb[candidates] - emb[query_blob]
        dists = (diff * diff).sum(axis=1)
        order = np.argsort(dists, kind="stable")
        return _top_images_from_blobs(candidates[order], dists[order],
                                      self.corpus.image_ids, top_images)

    def rerank_batch(self, query_blobs: Sequence[int],
                     candidate_lists: Sequence[np.ndarray],
                     top_images: Optional[int] = None,
                     profile=None) -> List[List[int]]:
        """Re-rank one candidate list per query, block-vectorized.

        Row for row bit-identical to :meth:`rerank`.  Equal-length
        candidate lists — the common case, every query asked the index
        for the same ``n`` — are ranked by a single ``(Q, n, full_dim)``
        distance kernel; ragged blocks fall back to per-query kernels.
        """
        if top_images is None:
            top_images = FULL_QUERY_RESULT_IMAGES
        if not len(candidate_lists):
            return []
        emb = self.corpus.embedded
        t0 = time.perf_counter()
        lengths = {len(c) for c in candidate_lists}
        if lengths == {0}:
            sorted_cands: Sequence = candidate_lists
            sorted_dists: Sequence = candidate_lists
        elif len(lengths) == 1:
            cands = np.asarray(candidate_lists, dtype=np.intp)
            diff = emb[cands] \
                - emb[np.asarray(query_blobs, dtype=np.intp)][:, None, :]
            dists = (diff * diff).sum(axis=-1)
            orders = np.argsort(dists, kind="stable", axis=-1)
            sorted_cands = np.take_along_axis(cands, orders, axis=-1)
            sorted_dists = np.take_along_axis(dists, orders, axis=-1)
        else:
            sorted_cands, sorted_dists = [], []
            for blob, candidates in zip(query_blobs, candidate_lists):
                diff = emb[candidates] - emb[blob]
                dists = (diff * diff).sum(axis=1)
                order = np.argsort(dists, kind="stable")
                sorted_cands.append(candidates[order])
                sorted_dists.append(dists[order])
        t1 = time.perf_counter()
        image_ids = self.corpus.image_ids
        results = [_top_images_from_blobs(c, d, image_ids, top_images)
                   for c, d in zip(sorted_cands, sorted_dists)]
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
        if tree is None:
            candidates = np.arange(self.corpus.num_blobs)
        else:
            if weights and weights.get("color", 1.0) <= 0:
                raise ValueError(
                    "index-assisted weighted queries need color weight "
                    "> 0 (the index covers color space)")
            query_vec = self.corpus.reduced(dims)[query_blob]
            hits = tree.knn(query_vec, num_blobs)
            candidates = np.array([rid for _, rid in hits],
                                  dtype=np.intp)
        dists = self.weighted_distances(query_blob, candidates, weights)
        order = np.argsort(dists, kind="stable")
        return _top_images_from_blobs(candidates[order], dists[order],
                                      self.corpus.image_ids, top_images)


def recall(reference_images: Sequence[int],
           retrieved_images: Sequence[int]) -> float:
    """Fraction of the reference images present in the retrieved set."""
    reference = set(reference_images)
    if not reference:
        return 1.0
    return len(reference & set(retrieved_images)) / len(reference)
