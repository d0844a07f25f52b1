"""Command-line entry point.

Subcommands: ``classify`` (run the pipeline on images), ``bench`` (model
Table-style timing/resource estimates and the cross-platform acceleration),
``sweep`` (precision-reduction study), ``stream`` (real-time frame-queue
behavior), ``fixtures`` (materialize seeded synthetic inputs).

Exit codes: 0 success, 1 user/input error, 2 internal invariant violation.
The ``KERNELPIPE_CONFIG`` environment variable may point at a key=value file
overriding platform parameters and resource coefficients; an unknown key or
a non-finite value is a user error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import fixtures, ingest, perf, pipeline, reference, sweep
from .netdef import AVG_POOL, MAX_POOL, lenet5_spec
from .ocl import MODE_NONE, MODE_SIMD, MODE_UNROLL, ParallelMode
from .tensors import QFormat


def _load_env_config() -> tuple[dict, dict]:
    """The platform catalog and resource coefficients with the
    ``KERNELPIPE_CONFIG`` overrides applied; every key must be one of theirs."""
    path = os.environ.get("KERNELPIPE_CONFIG")
    config = ingest.load_config(path) if path else {}
    return perf.platform_catalog(config), perf.resource_coeffs(config)


def _mode_from_args(args, kind: str | None = None) -> ParallelMode:
    kind = kind if kind is not None else args.mode
    if kind == MODE_UNROLL:
        return ParallelMode(MODE_UNROLL, args.factor, args.cu)
    if kind == MODE_SIMD:
        return ParallelMode(MODE_SIMD, args.width, args.cu)
    return ParallelMode(MODE_NONE, cu_count=args.cu)


def _qformat_from_args(args) -> QFormat:
    return QFormat(args.qbits, args.qfrac)


def _load_images(args) -> list[np.ndarray]:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.images:
        return [ingest.load_image_text(path) for path in args.images]
    if args.mnist:
        pairs = ingest.load_mnist_idx(args.mnist[0], args.mnist[1], args.count)
        return [image for image, _ in pairs]
    return list(fixtures.synthetic_images(args.seed, args.count))


def _pool_op(args) -> str:
    return AVG_POOL if args.avg_pool else MAX_POOL


def cmd_classify(args) -> int:
    store = ingest.load_weights_text(args.weights)
    images = _load_images(args)
    q = _qformat_from_args(args)
    fixed_store = store.quantize(q)
    mode = _mode_from_args(args)
    pool_op = _pool_op(args)

    out = open(args.out, "w", encoding="ascii", newline="\n") if args.out else sys.stdout
    try:
        agreements = 0
        for index, image in enumerate(images):
            result = pipeline.forward(image, fixed_store, mode=mode, pool_op=pool_op)
            logits = ",".join("%.9g" % v for v in result.logits)
            out.write(f"{index},{result.winner},{logits}\n")
            if args.oracle:
                oracle_logits, _ = reference.forward_float(image, store, pool_op)
                agreements += result.winner == reference.winner_digit(oracle_logits)
        if args.oracle:
            out.write("agreement,%.9g\n" % (agreements / len(images)))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _bench_records(platforms, q, args, coeffs) -> dict[str, list[perf.BenchRecord]]:
    spec = lenet5_spec()
    modes = [
        ParallelMode(MODE_NONE, cu_count=args.cu),
        ParallelMode(MODE_UNROLL, args.factor, args.cu),
        ParallelMode(MODE_SIMD, args.width, args.cu),
    ]
    records: dict[str, list[perf.BenchRecord]] = {}
    for platform in platforms:
        recs = []
        for fp in perf.pipeline_footprints(spec, q):
            times, logic, dsp, bram = [], [], [], []
            for mode in modes:
                times.append(perf.estimate_time(fp, platform, mode))
                res = perf.estimate_resources(fp.stage, mode, coeffs, platform)
                logic.append(res.logic_k)
                dsp.append(res.dsp)
                bram.append(res.bram_kb)
            recs.append(perf.BenchRecord(kernel=fp.stage, times_ms=tuple(times),
                                         logic_k=tuple(logic), dsp=tuple(dsp),
                                         bram_kb=tuple(bram)))
        records[platform.name] = recs
    return records


def cmd_bench(args) -> int:
    catalog, coeffs = _load_env_config()

    if args.from_csv:
        rows = ingest.read_results_csv(args.from_csv)
        records: dict[str, list[perf.BenchRecord]] = {}
        for platform, rec in rows:
            records.setdefault(platform, []).append(rec)
    else:
        names = args.platform or [perf.XILINX, perf.ALTERA]
        platforms = [perf.resolve_platform(n, catalog) for n in names]
        records = _bench_records(platforms, _qformat_from_args(args), args, coeffs)

    accel = None
    if len(records) == 2:
        first, second = records.values()
        accel = perf.acceleration_table(first, second)
    report = perf.render_report(records, accel)
    sys.stdout.write(report)

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        flat = [(platform, rec) for platform, recs in records.items() for rec in recs]
        ingest.write_results_csv(flat, out_dir / "bench.csv")
        if accel is not None:
            ingest.write_accel_csv(accel, out_dir / "acceleration.csv")
    return 0


def _parse_grid(text: str) -> list[QFormat]:
    formats = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        total, _, frac = part.partition(":")
        formats.append(QFormat(int(total), int(frac)))
    if not formats:
        raise ValueError("empty sweep grid")
    return formats


def cmd_sweep(args) -> int:
    if args.weights:
        store = ingest.load_weights_text(args.weights)
    else:
        store = fixtures.synthetic_weights(args.seed)
    images = _load_images(args)
    formats = _parse_grid(args.grid)
    results = sweep.sweep_precision(store, images, formats, pool_op=_pool_op(args))
    out_path = args.out or "sweep.csv"
    ingest.write_sweep_csv(results, out_path)
    for r in results:
        sys.stdout.write(
            f"{r.qformat}  max_err={r.max_abs_logit_error:.6g}  "
            f"mean_err={r.mean_abs_logit_error:.6g}  "
            f"agreement={r.argmax_agreement:.3f}  n={r.n_samples}\n")
    return 0


def cmd_stream(args) -> int:
    catalog, _ = _load_env_config()
    platform = perf.resolve_platform(args.platform, catalog)
    q = _qformat_from_args(args)
    mode = _mode_from_args(args)
    spec = lenet5_spec()
    service = sum(perf.estimate_time(fp, platform, mode)
                  for fp in perf.pipeline_footprints(spec, q))
    latencies = perf.simulate_stream(service, args.interval, args.frames)
    verdict = perf.stream_verdict(latencies)
    sys.stdout.write(f"platform,{platform.name}\n")
    sys.stdout.write("service_ms,%.9g\n" % service)
    sys.stdout.write("interval_ms,%.9g\n" % args.interval)
    sys.stdout.write("frames,%d\n" % args.frames)
    sys.stdout.write("first_latency_ms,%.9g\n" % latencies[0])
    sys.stdout.write("last_latency_ms,%.9g\n" % latencies[-1])
    sys.stdout.write(f"verdict,{verdict}\n")
    return 0


def cmd_fixtures(args) -> int:
    written = fixtures.write_fixture_files(args.out, args.seed, args.count)
    for kind, paths in written.items():
        for path in paths:
            sys.stdout.write(f"{kind},{path}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelpipe",
        description="Five-kernel digit-classification pipeline on an emulated "
                    "OpenCL device, with FPGA platform modeling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mode=True):
        p.add_argument("--qbits", type=int, default=16, help="fixed-point total bits")
        p.add_argument("--qfrac", type=int, default=8, help="fixed-point fractional bits")
        p.add_argument("--seed", type=int, default=42, help="seed for synthetic fixtures")
        p.add_argument("--avg-pool", action="store_true",
                       help="use average pooling instead of max")
        if with_mode:
            p.add_argument("--mode", choices=[MODE_NONE, MODE_UNROLL, MODE_SIMD],
                           default=MODE_NONE)
            p.add_argument("--factor", type=int, default=4, help="unroll factor")
            p.add_argument("--width", type=int, default=8, help="simd width")
            p.add_argument("--cu", type=int, default=1, help="compute unit count")

    p = sub.add_parser("classify", help="classify images through the pipeline")
    p.add_argument("--weights", required=True, help="text weight file")
    p.add_argument("--images", nargs="*", default=[], help="text image files")
    p.add_argument("--mnist", nargs=2, metavar=("IMAGES", "LABELS"),
                   help="IDX image/label pair")
    p.add_argument("--count", type=int, default=4,
                   help="images to take from IDX / synthetic source")
    p.add_argument("--oracle", action="store_true",
                   help="also run the float64 reference and report winner agreement")
    p.add_argument("--out", help="write result lines to this file instead of stdout")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", help="estimate per-kernel times/resources and acceleration")
    p.add_argument("--platform", action="append",
                   help="platform name (repeatable; default: both boards)")
    p.add_argument("--from-csv", help="replay a results CSV instead of estimating")
    p.add_argument("--out", help="directory for bench.csv / acceleration.csv")
    add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="precision-reduction study")
    p.add_argument("--weights", help="text weight file (default: synthetic)")
    p.add_argument("--images", nargs="*", default=[], help="text image files")
    p.add_argument("--mnist", nargs=2, metavar=("IMAGES", "LABELS"))
    p.add_argument("--count", type=int, default=20,
                   help="images to take from IDX / synthetic source")
    p.add_argument("--grid", default="8:4,12:6,16:8,24:12,32:16",
                   help="comma-separated total:frac bit pairs")
    p.add_argument("--out", help="sweep CSV path (default sweep.csv)")
    add_common(p, with_mode=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stream", help="frame-queue latency under continuous capture")
    p.add_argument("--platform", required=True)
    p.add_argument("--interval", type=float, required=True,
                   help="frame capture interval in ms")
    p.add_argument("--frames", type=int, default=1000)
    add_common(p)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("fixtures", help="write seeded synthetic weight/image files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=4, help="number of images")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # internal invariant violation
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
