"""Command-line interface: ``python -m repro <command>``.

Covers the end-to-end workflow a downstream user needs:

- ``corpus``  — build and save a blob corpus (generative or pipeline);
- ``index``   — build and save an access method over a corpus;
- ``query``   — run a two-stage Blobworld query through a saved index;
- ``analyze`` — amdb-style loss comparison of access methods;
- ``recall``  — the Figure 6 recall grid;
- ``info``    — inspect a saved index;
- ``fsck``    — scrub a saved index page-by-page (checksums,
  reachability), exit 1 if damaged; ``--deep`` additionally verifies
  index semantics (BP containment, JB/XJB bite emptiness, census);
- ``recover`` — replay a mutated index's write-ahead log (torn-tail
  truncation + committed-transaction redo), then deep-fsck the result;
  exit 1 if the recovered index is damaged;
- ``crashtest`` — randomized kill-and-recover trials across the AM
  families (the CI crash-recovery job's entry point);
- ``serve``   — run the sharded scatter-gather serving daemon over a
  synthetic request stream, reporting tail latency, queue depth, and
  each shard's liveness.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.constants import (
    DEFAULT_PAGE_SIZE,
    FULL_QUERY_RESULT_IMAGES,
    INDEX_DIMENSIONS,
    NEIGHBORS_PER_QUERY,
)


def _cmd_corpus(args) -> int:
    from repro.blobworld import build_corpus, build_pipeline_corpus, save_corpus
    if args.pipeline:
        corpus = build_pipeline_corpus(num_images=args.images,
                                       seed=args.seed)
    else:
        corpus = build_corpus(num_blobs=args.blobs,
                              num_images=args.images, seed=args.seed)
    save_corpus(corpus, args.output)
    print(f"saved {corpus.num_blobs} blobs / {corpus.num_images} images "
          f"to {args.output}")
    return 0


def _cmd_index(args) -> int:
    from repro.blobworld import load_corpus
    from repro.core import build_index
    from repro.gist.persist import save_tree

    corpus = load_corpus(args.corpus)
    vectors = corpus.reduced(args.dims)
    options = {}
    if args.method == "xjb" and args.x is not None:
        options["x"] = args.x if args.x >= 0 else "auto"
    tree = build_index(vectors, args.method, page_size=args.page_size,
                       loading=args.loading, codec=args.codec, **options)
    save_tree(tree, args.output)
    print(f"{args.method} index over {len(vectors)} x {args.dims}D "
          f"vectors ({args.codec} leaves): height {tree.height}, "
          f"{tree.num_nodes()} nodes -> {args.output}")
    return 0


def _cmd_query(args) -> int:
    from repro.blobworld import BlobworldEngine, load_corpus
    from repro.gist.persist import load_tree

    corpus = load_corpus(args.corpus)
    tree = load_tree(path=args.index)
    engine = BlobworldEngine(corpus)
    weights = {"color": args.color_weight,
               "texture": args.texture_weight,
               "location": args.location_weight}
    images = engine.weighted_query(
        args.blob, weights, top_images=args.top,
        tree=tree, num_blobs=args.candidates,
        dims=tree.ext.dim)
    print(f"query blob {args.blob} (image "
          f"{int(corpus.image_ids[args.blob])}); "
          f"weights {weights}")
    print(f"top {args.top} images: {images}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.amdb import format_comparison
    from repro.blobworld import load_corpus
    from repro.core import compare_methods
    from repro.workload import make_workload

    corpus = load_corpus(args.corpus)
    vectors = corpus.reduced(args.dims)
    workload = make_workload(vectors, args.queries, k=args.k,
                             seed=args.seed)
    reports = compare_methods(vectors, workload.queries, k=args.k,
                              methods=args.methods,
                              page_size=args.page_size)
    if args.json:
        from repro.amdb import reports_to_json
        print(reports_to_json(reports))
        return 0
    if args.csv:
        from repro.amdb import reports_to_csv
        print(reports_to_csv([reports[m] for m in args.methods]),
              end="")
        return 0
    print(format_comparison([reports[m] for m in args.methods]))
    print()
    print(format_comparison([reports[m] for m in args.methods],
                            relative=True))
    return 0


def _cmd_serve(args) -> int:
    import json
    import time

    from repro.amdb.profiler import ShardServeProfile
    from repro.blobworld import load_corpus
    from repro.serving import ShardedService

    corpus = load_corpus(args.corpus)
    rng = np.random.default_rng(args.seed)
    pool = rng.choice(corpus.num_blobs,
                      size=min(corpus.num_blobs, max(1, args.stream // 4)),
                      replace=False)
    stream = [int(b) for b in rng.choice(pool, size=args.stream)]
    profile = ShardServeProfile(method=args.method, codec=args.codec,
                                num_shards=args.shards,
                                request_size=args.request_size)
    service = ShardedService.build(
        corpus, args.shards, method=args.method, dims=args.dims,
        page_size=args.page_size, codec=args.codec,
        cache_size=args.cache_size)
    with service:
        t0 = time.perf_counter()
        service.serve_stream(stream, args.candidates,
                             top_images=args.top,
                             request_size=args.request_size,
                             profile=profile)
        profile.total_seconds = time.perf_counter() - t0
        service.gather_stats(profile)
        doc = profile.as_dict()
        doc["degradation"] = service.degradation.summary()
        mode = "inline" if service.inline else "forked"
    lat = doc["latency_ms"]
    print(f"{args.shards} {mode} shard(s), {args.method}/{args.codec}: "
          f"{len(stream)} queries in {profile.total_seconds:.2f}s "
          f"({len(stream) / profile.total_seconds:.1f} q/s)")
    tb = doc.get("transport_bytes", {})
    if tb:
        print(f"transport bytes pickled/control: "
              f"{tb.get('pickled', 0)}/{tb.get('control', 0)}")
    if lat:
        print(f"request latency ms p50/p95/p99: "
              f"{lat['p50_ms']}/{lat['p95_ms']}/{lat['p99_ms']}; "
              f"queue depth max {doc['queue_depth']['max']}")
    print(f"coordinator cache hit rate: {profile.cache_hit_rate:.0%}; "
          f"degraded requests: {profile.degraded_requests}")
    for shard_id, shard in doc["liveness"].items():
        cause = f" ({shard['cause']})" if "cause" in shard else ""
        print(f"  shard {shard_id}: {shard['state']}{cause}, "
              f"rids {shard['rid_range']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_recall(args) -> int:
    from repro.blobworld import load_corpus
    from repro.workload import recall_curve

    corpus = load_corpus(args.corpus)
    queries = corpus.sample_query_blobs(args.queries,
                                        seed=args.seed).tolist()
    dims = sorted(set(args.dims_list))
    retrieved = sorted(set(args.retrieved))
    points = recall_curve(corpus, queries, dims, retrieved)
    by_key = {(p.dims, p.retrieved): p.mean_recall for p in points}
    print("retrieved " + "".join(f"{d:>7}D" for d in dims))
    for r in retrieved:
        print(f"{r:>9} " + "".join(f"{by_key[(d, r)]:>8.3f}"
                                   for d in dims))
    return 0


def _cmd_info(args) -> int:
    from repro.gist.persist import load_tree
    from repro.gist.validate import validate_tree

    from repro.amdb import format_tree_report

    tree = load_tree(path=args.index)
    report = validate_tree(tree)
    print(f"config       : {tree.ext.config() or '{}'}")
    print(format_tree_report(report.tree_summary))
    print("invariants   : ok")
    return 0


def _cmd_fsck(args) -> int:
    if args.deep:
        import json

        from repro.analysis import deep_scrub

        report = deep_scrub(args.index)
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
        print(report.format())
        return 0 if report.clean else 1

    from repro.gist.validate import scrub_file

    report = scrub_file(args.index)
    print(report.format())
    return 0 if report.clean else 1


def _cmd_recover(args) -> int:
    import json

    from repro.analysis import deep_scrub
    from repro.storage.errors import StorageError
    from repro.storage.wal import recover

    try:
        report = recover(args.index, wal_path=args.wal,
                         checkpoint=not args.no_checkpoint)
    except StorageError as exc:
        print(f"recovery refused: {exc}")
        return 1
    print(report.format())
    scrub = deep_scrub(args.index)
    if args.json:
        doc = {"recovery": report.to_dict(), "fsck": scrub.to_dict()}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(scrub.format())
    return 0 if scrub.clean else 1


def _cmd_crashtest(args) -> int:
    import json

    from repro.workload.crash import run_crash_trials

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = run_crash_trials(methods=methods, trials=args.trials,
                              seed=args.seed, workdir=args.workdir,
                              codec=args.codec)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    print(report.format())
    return 0 if report.clean else 1


def _page_size(text: str) -> int:
    """A ``--page-size`` whose WAL record, the record header plus one
    page, fits CRC-32's HD-4 data word (DESIGN.md section 6)."""
    from repro.storage.wal import CRC32_HD4_BITS, MAX_PAGE_SIZE

    size = int(text)
    if size > MAX_PAGE_SIZE:
        raise argparse.ArgumentTypeError(
            f"{size} bytes: a WAL record carrying the page would exceed "
            f"CRC-32's {CRC32_HD4_BITS:,}-bit HD-4 data word; the largest "
            f"page is {MAX_PAGE_SIZE:,} bytes")
    return size


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Customized access methods for Blobworld "
                    "(ICDE 2000 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="build and save a blob corpus")
    p.add_argument("output", help="output .npz path")
    p.add_argument("--blobs", type=int, default=20_000)
    p.add_argument("--images", type=int, default=3_200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pipeline", action="store_true",
                   help="run the full image pipeline (slow, small)")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("index", help="build and save an access method")
    p.add_argument("corpus", help="corpus .npz path")
    p.add_argument("output", help="output .gist path")
    p.add_argument("--method", default="xjb",
                   choices=["rtree", "rstar", "sstree", "srtree",
                            "amap", "xjb", "jb"])
    p.add_argument("--dims", type=int, default=INDEX_DIMENSIONS)
    p.add_argument("--page-size", type=_page_size,
                   default=DEFAULT_PAGE_SIZE)
    p.add_argument("--loading", default="bulk",
                   choices=["bulk", "insert"])
    p.add_argument("--codec", default="f64", choices=["f64", "sq8"],
                   help="leaf-page format: exact f64 entries or 8-bit "
                        "scalar-quantized (4-6x denser; queries rank "
                        "its leaves by the corpus's reduced vectors)")
    p.add_argument("--x", type=int, default=None,
                   help="XJB bite budget (-1 = auto)")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("query", help="two-stage Blobworld query")
    p.add_argument("corpus")
    p.add_argument("index")
    p.add_argument("blob", type=int, help="query blob id")
    p.add_argument("--top", type=int, default=FULL_QUERY_RESULT_IMAGES)
    p.add_argument("--candidates", type=int,
                   default=NEIGHBORS_PER_QUERY)
    p.add_argument("--color-weight", type=float, default=1.0)
    p.add_argument("--texture-weight", type=float, default=0.0)
    p.add_argument("--location-weight", type=float, default=0.0)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("analyze", help="amdb loss comparison")
    p.add_argument("corpus")
    p.add_argument("--methods", nargs="+",
                   default=["rtree", "xjb", "jb"])
    p.add_argument("--dims", type=int, default=INDEX_DIMENSIONS)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--k", type=int, default=NEIGHBORS_PER_QUERY)
    p.add_argument("--page-size", type=_page_size,
                   default=DEFAULT_PAGE_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="emit results as JSON")
    p.add_argument("--csv", action="store_true",
                   help="emit results as CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "serve", help="run the sharded serving daemon over a stream")
    p.add_argument("corpus", help="corpus .npz path")
    p.add_argument("--shards", type=int, default=2,
                   help="number of shard worker processes")
    p.add_argument("--method", default="rtree",
                   choices=["rtree", "rstar", "sstree", "srtree",
                            "amap", "xjb", "jb"])
    p.add_argument("--dims", type=int, default=INDEX_DIMENSIONS)
    p.add_argument("--page-size", type=_page_size,
                   default=DEFAULT_PAGE_SIZE)
    p.add_argument("--codec", default="f64", choices=["f64", "sq8"])
    p.add_argument("--candidates", type=int,
                   default=NEIGHBORS_PER_QUERY)
    p.add_argument("--top", type=int, default=FULL_QUERY_RESULT_IMAGES)
    p.add_argument("--stream", type=int, default=512,
                   help="synthetic request-stream length")
    p.add_argument("--request-size", type=int, default=64,
                   help="queries per request block")
    p.add_argument("--cache-size", type=int, default=4096,
                   help="coordinator result-cache capacity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the serve profile as JSON")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("recall", help="Figure 6 recall grid")
    p.add_argument("corpus")
    p.add_argument("--queries", type=int, default=30)
    p.add_argument("--dims-list", type=int, nargs="+",
                   default=[1, 2, 3, 5, 10])
    p.add_argument("--retrieved", type=int, nargs="+",
                   default=[50, 200, 800])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_recall)

    p = sub.add_parser("info", help="inspect a saved index")
    p.add_argument("index")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("fsck", help="scrub a saved index for damage")
    p.add_argument("index")
    p.add_argument("--deep", action="store_true",
                   help="after the page scrub, verify index semantics: "
                        "BP containment, JB/XJB bite emptiness, page "
                        "census, fanout bounds")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the deep report as JSON "
                        "(--deep only)")
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser(
        "recover", help="replay the write-ahead log of a mutated index")
    p.add_argument("index")
    p.add_argument("--wal", metavar="PATH", default=None,
                   help="sidecar log path (default: <index>.wal)")
    p.add_argument("--no-checkpoint", action="store_true",
                   help="leave the log in place after replay (replay "
                        "is idempotent, so this is safe to repeat)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write recovery + fsck reports as JSON")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "crashtest",
        help="randomized kill-and-recover trials over the WAL stack")
    p.add_argument("--methods", default=",".join(
        ("rtree", "sstree", "srtree", "amap", "jb", "xjb")),
        help="comma-separated AM families to round-robin")
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--codec", default="f64", choices=["f64", "sq8"],
                   help="leaf-page codec the trial indexes use (sq8 "
                        "trials attach the original keys as exact, so "
                        "they make the same durability checks and "
                        "bit-exact shadow k-NN as f64)")
    p.add_argument("--workdir", default=None,
                   help="directory for trial files (default: a temp dir)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the per-trial log as JSON (the CI "
                        "artifact format)")
    p.set_defaults(func=_cmd_crashtest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
