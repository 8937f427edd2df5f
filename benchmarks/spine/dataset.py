"""The benchmark's corpus: the paper's 221,231 blobs, generated once per checkout.

``build_corpus`` + ``corpus.embedded`` + ``corpus.reduced(5)`` take about
40 s at paper scale, more than a whole benchmark run may.  The first
paper-scale run in a checkout therefore generates the corpus through those
public calls and stores its arrays as ``.npy`` files under ``.bench_build/``;
later runs memory-map them.  The corpus is fixed (seed 0) — ``--seed`` drives
only the operations — so the cache is a data set, not a result: index builds,
opens and service starts are never cached and land in ``setup_s``.

The cache key hashes the ``repro.blobworld`` sources, so an edit to the
generator, the embedding or the SVD rebuilds it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
BUILD_DIR = ROOT / ".bench_build" / "spine"

#: the paper's query shape (section 3): 5-D index, 200 candidate blobs,
#: 40 result images, 8 KB pages.
DIMS = 5
CANDIDATES = 200
TOP_IMAGES = 40
PAGE_SIZE = 8192

#: opens of the cached corpus per run; setup_s takes their median
OPEN_REPEATS = 3

_BASE_ARRAYS = ("histograms", "image_ids", "textures", "locations", "sizes",
                "themes")


@dataclass(frozen=True)
class Scale:
    """Corpus size.  Results are stamped with the name, and ``compare``
    refuses to set numbers of different scales side by side."""

    name: str
    num_blobs: int
    num_images: int
    cached: bool


SCALES = {
    "paper": Scale("paper", 221_231, 35_000, cached=True),
    # plumbing only (test_spine.py): every tree is a handful of pages.
    "test": Scale("test", 2_000, 320, cached=False),
}


def _generate(scale: Scale, timings: Dict[str, float]):
    from repro.blobworld import build_corpus
    t0 = time.perf_counter()
    corpus = build_corpus(scale.num_blobs, scale.num_images, seed=0)
    t1 = time.perf_counter()
    corpus.embedded
    corpus.reduced(DIMS)
    timings["corpus_build_s"] = t1 - t0
    timings["embed_reduce_s"] = time.perf_counter() - t1
    return corpus


def _cache_key(scale: Scale) -> str:
    import repro.blobworld
    digest = hashlib.sha1(
        f"{scale}|numpy {np.__version__}|dims {DIMS}".encode())
    for path in sorted(Path(repro.blobworld.__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _write_cache(corpus, directory: Path, timings: Dict[str, float]) -> None:
    """Write to a private directory, then rename: a killed or concurrent
    run never leaves a half-written cache behind."""
    staging = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
    staging.mkdir(parents=True)
    try:
        for name in _BASE_ARRAYS:
            np.save(staging / f"{name}.npy", getattr(corpus, name))
        np.save(staging / "embedded.npy", corpus.embedded)
        np.save(staging / f"reduced{DIMS}.npy", corpus.reduced(DIMS))
        (staging / "meta.json").write_text(json.dumps(
            {"sigma": corpus.distance.sigma, "timings": timings}))
        try:
            staging.rename(directory)
        except OSError:
            pass  # another run won the race; its copy is identical
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _read_cache(directory: Path, timings: Dict[str, float]):
    from repro.blobworld import BlobCorpus, QuadraticFormDistance
    from repro.blobworld.binning import default_binning

    class CachedCorpus(BlobCorpus):
        """A ``BlobCorpus`` whose lazily computed arrays come from disk."""

        @property
        def embedded(self):
            return embedded

        def reduced(self, dims: int):
            return reduced if dims == DIMS else super().reduced(dims)

    def load(name: str):
        return np.load(directory / f"{name}.npy", mmap_mode="r")

    meta = json.loads((directory / "meta.json").read_text())
    timings.update(meta["timings"])
    embedded = load("embedded")
    # the 5-D vectors are what every index build and scan reads: keep
    # them as an ordinary in-memory array, as ``corpus.reduced`` returns
    reduced = np.array(load(f"reduced{DIMS}"))
    binning = default_binning()
    return CachedCorpus(
        binning=binning,
        distance=QuadraticFormDistance(binning.bin_distances(),
                                       sigma=meta["sigma"]),
        **{name: load(name) for name in _BASE_ARRAYS})


def open_corpus(scale: Scale, timings: Dict[str, float]):
    """The corpus for ``scale``.  ``timings`` receives how long generating
    it took (measured now, or when the cache was written) and ``open_s``,
    the part every run pays: the median of ``OPEN_REPEATS`` opens, because
    the first open after the machine was idle takes several times longer."""
    if not scale.cached:
        start = time.perf_counter()
        corpus = _generate(scale, timings)
        timings["open_s"] = time.perf_counter() - start
        return corpus
    opens = []
    for _ in range(OPEN_REPEATS):
        start = time.perf_counter()
        directory = BUILD_DIR / f"corpus-{scale.name}-{_cache_key(scale)}"
        if not (directory / "meta.json").exists():
            _write_cache(_generate(scale, timings), directory, timings)
            start = time.perf_counter()
        corpus = _read_cache(directory, timings)
        opens.append(time.perf_counter() - start)
    timings["open_s"] = statistics.median(opens)
    return corpus
