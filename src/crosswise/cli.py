"""Command-line front end: train, bench, kernel-check, algebra-check, gen-data.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 divergence,
4 I/O error.  All commands are deterministic for a given config and seed
except wall-clock timing columns.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from .datasets import Dataset, gen_blobs, gen_xor, load_csv, save_csv
from .errors import (
    ConfigError,
    DivergenceError,
    ParameterError,
    SamplingError,
    ShapeError,
    expect_int,
    expect_keys as _expect_keys,
)
from .features import kernel_exact, feature_map_apply, sample_feature_map
from .network import (
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    build_network,
    count_mults,
    count_weights,
    model_to_json,
    network_forward,
    train_network,
)
from .products import verify_identities
from .rng import CounterRng, derive_seed

_BLOB_KEYS = {"kind", "seed", "samples_per_class", "dims", "classes", "spread"}
_XOR_KEYS = {"kind", "seed", "samples", "noise"}
_CSV_KEYS = {"kind", "path"}


def _as_real(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return float(value)


def load_config(path):
    """Read and strictly validate a version-1 JSON run config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict):
    _expect_keys(doc, {"version", "network", "train", "data", "out"}, "config")
    if doc["version"] != 1:
        raise ConfigError(f"config version must be 1, got {doc['version']!r}")

    net_doc = doc["network"]
    _expect_keys(net_doc, {"layers", "seed"}, "config.network")
    if not isinstance(net_doc["layers"], list) or not net_doc["layers"]:
        raise ConfigError("config.network.layers must be a non-empty list")
    layer_specs = []
    for i, entry in enumerate(net_doc["layers"]):
        ctx = f"config.network.layers[{i}]"
        _expect_keys(entry, {"kind", "in", "out", "activation"}, ctx)
        try:
            layer_specs.append(LayerSpec(
                kind=entry["kind"],
                in_dim=expect_int(entry["in"], f"{ctx}.in"),
                out_dim=expect_int(entry["out"], f"{ctx}.out"),
                activation=entry["activation"],
            ))
        except ParameterError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    try:
        net_spec = NetworkSpec(layers=tuple(layer_specs),
                               seed=expect_int(net_doc["seed"], "config.network.seed"))
    except (ParameterError, ShapeError) as exc:
        raise ConfigError(f"config.network: {exc}") from exc

    train_doc = doc["train"]
    _expect_keys(train_doc, {"lr", "epochs", "batch", "loss", "seed"}, "config.train")
    try:
        train_cfg = TrainConfig(
            learning_rate=_as_real(train_doc["lr"], "config.train.lr"),
            epochs=expect_int(train_doc["epochs"], "config.train.epochs"),
            batch_size=expect_int(train_doc["batch"], "config.train.batch"),
            loss=train_doc["loss"],
            seed=expect_int(train_doc["seed"], "config.train.seed"),
        )
    except ParameterError as exc:
        raise ConfigError(f"config.train: {exc}") from exc

    data_doc = doc["data"]
    if not isinstance(data_doc, dict) or "kind" not in data_doc:
        raise ConfigError("config.data must be an object with a 'kind' key")
    kind = data_doc["kind"]
    if kind == "blobs":
        _expect_keys(data_doc, _BLOB_KEYS, "config.data")
    elif kind == "xor":
        _expect_keys(data_doc, _XOR_KEYS, "config.data")
    elif kind == "csv":
        _expect_keys(data_doc, _CSV_KEYS, "config.data")
    else:
        raise ConfigError(f"config.data.kind must be blobs, xor or csv, got {kind!r}")

    out_doc = doc["out"]
    _expect_keys(out_doc, {"history", "model"}, "config.out")
    for key in ("history", "model"):
        if not isinstance(out_doc[key], str):
            raise ConfigError(f"config.out.{key} must be a path string")

    return net_spec, train_cfg, data_doc, out_doc


def build_dataset(data_doc: dict) -> Dataset:
    kind = data_doc["kind"]
    try:
        if kind == "blobs":
            return gen_blobs(
                seed=expect_int(data_doc["seed"], "config.data.seed"),
                samples_per_class=expect_int(data_doc["samples_per_class"],
                                             "config.data.samples_per_class"),
                dims=expect_int(data_doc["dims"], "config.data.dims"),
                class_count=expect_int(data_doc["classes"], "config.data.classes"),
                spread=_as_real(data_doc["spread"], "config.data.spread"),
            )
        if kind == "xor":
            return gen_xor(
                seed=expect_int(data_doc["seed"], "config.data.seed"),
                samples=expect_int(data_doc["samples"], "config.data.samples"),
                noise=_as_real(data_doc["noise"], "config.data.noise"),
            )
        return load_csv(data_doc["path"])
    except ParameterError as exc:
        raise ConfigError(f"config.data: {exc}") from exc


def _write_history_csv(history, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss,accuracy,wall_ms\n")
        for rec in history:
            fh.write(f"{rec.epoch},{repr(rec.train_loss)},"
                     f"{repr(rec.train_accuracy)},{repr(rec.wall_ms)}\n")


def cmd_train(args) -> int:
    net_spec, train_cfg, data_doc, out_doc = load_config(args.config)
    data = build_dataset(data_doc)
    net = build_network(net_spec)
    history = train_network(net, train_cfg, data, threads=args.threads)
    _write_history_csv(history, out_doc["history"])
    with open(out_doc["model"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_json(net), fh, indent=1)
        fh.write("\n")
    if history:
        last = history[-1]
        print(f"trained {len(history)} epochs; final loss {last.train_loss:.6f}, "
              f"accuracy {last.train_accuracy:.4f}")
    else:
        print("trained 0 epochs")
    return 0


def _parse_dims(items) -> list:
    dims = []
    for item in items:
        parts = item.lower().split("x")
        if len(parts) != 2:
            raise ParameterError(f"--dims expects NxM, got {item!r}")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParameterError(f"--dims expects integers NxM, got {item!r}") from exc
        if n < 1 or m < 1:
            raise ParameterError(f"--dims must be positive, got {item!r}")
        dims.append((n, m))
    return dims


def _median_forward_ns(net, x, reps: int) -> int:
    for _ in range(5):
        network_forward(net, x)
    times = []
    for _ in range(reps):
        started = time.perf_counter_ns()
        network_forward(net, x)
        times.append(time.perf_counter_ns() - started)
    return int(statistics.median(times))


def cmd_bench(args) -> int:
    if args.reps < 10:
        raise ParameterError(f"--reps must be at least 10, got {args.reps}")
    dims = _parse_dims(args.dims)
    rows = []
    for n, m in dims:
        for kind in ("dense", "crosswise"):
            spec = NetworkSpec(
                layers=(LayerSpec(kind=kind, in_dim=n, out_dim=m, activation="relu"),),
                seed=args.seed,
            )
            net = build_network(spec)
            x = CounterRng(args.seed, stream=1).uniform(n, -1.0, 1.0)
            rows.append((
                kind, n, m,
                count_weights(spec).total_weights,
                count_mults(spec).total_mults,
                _median_forward_ns(net, x, args.reps),
                args.reps,
            ))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("layer_kind,n,m,weights,mults,median_ns,reps\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    for row in rows:
        print(f"{row[0]} {row[1]}x{row[2]}: weights={row[3]} mults={row[4]} "
              f"median_ns={row[5]}")
    return 0


def _parse_block_counts(text: str) -> list:
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParameterError(f"--blocks expects comma-separated integers, got {text!r}") from exc
    if not counts or any(b < 1 for b in counts):
        raise ParameterError(f"--blocks entries must be positive, got {text!r}")
    return counts


def cmd_kernel_check(args) -> int:
    if args.pairs < 1:
        raise ParameterError(f"--pairs must be positive, got {args.pairs}")
    if args.d < 1:
        raise ParameterError(f"--d must be positive, got {args.d}")
    if not args.sigma > 0:
        raise ParameterError(f"--sigma must be positive, got {args.sigma}")
    blocks = _parse_block_counts(args.blocks)

    rng = CounterRng(args.seed, stream=0)
    raw = rng.normal(2 * args.pairs * args.d).reshape(2 * args.pairs, args.d)
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms < 1e-12):
        raise SamplingError("degenerate pair draw; use a different seed")
    points = raw / norms[:, None]

    lines = []
    summary = []
    for block_count in blocks:
        fm = sample_feature_map(derive_seed(args.seed, block_count), args.d,
                                args.sigma, block_count)
        phi = feature_map_apply(fm, points)
        errors = []
        for i in range(args.pairs):
            exact = kernel_exact(points[2 * i], points[2 * i + 1], args.sigma)
            approx = float(phi[2 * i] @ phi[2 * i + 1])
            err = abs(exact - approx)
            errors.append(err)
            lines.append(f"{block_count},{i},{repr(exact)},{repr(approx)},{repr(err)}")
        summary.append((block_count, float(np.mean(errors)), float(np.max(errors))))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("blocks,pair,exact,approx,abs_error\n")
        for line in lines:
            fh.write(line + "\n")
    for block_count, mean_err, max_err in summary:
        print(f"blocks={block_count}: mean abs error {mean_err:.6f}, max {max_err:.6f}")
    return 0


def cmd_algebra_check(args) -> int:
    report = verify_identities(args.seed, args.max_dim)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("identity_id,residual,pass\n")
        for check in report.checks:
            fh.write(f"{check.identity_id},{repr(check.residual)},"
                     f"{str(check.passed).lower()}\n")
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        print(f"{check.identity_id}: residual {check.residual:.3e} "
              f"(threshold {check.threshold:.1e}) {status}")
    if not report.passed:
        print(f"failing identities: {', '.join(report.failing_ids())}", file=sys.stderr)
        return 1
    return 0


def cmd_gen_data(args) -> int:
    if args.kind == "blobs":
        data = gen_blobs(seed=args.seed, samples_per_class=args.per_class,
                         dims=args.dims, class_count=args.classes,
                         spread=args.spread)
    else:
        data = gen_xor(seed=args.seed, samples=args.samples, noise=args.noise)
    save_csv(data, args.out)
    print(f"wrote {data.sample_count} rows to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosswise",
        description="Diagonal-weight networks: training, benchmarks, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a network from a JSON config")
    p_train.add_argument("--config", required=True, help="path to the JSON run config")
    p_train.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; has no effect (must be >= 1)")

    p_bench = sub.add_parser("bench", help="benchmark dense vs crosswise forward passes")
    p_bench.add_argument("--dims", action="append", required=True, metavar="NxM",
                         help="layer shape to bench; repeatable")
    p_bench.add_argument("--reps", type=int, default=50,
                         help="timing repetitions per row (>= 10, default 50)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="bench.csv", help="output CSV path")

    p_kernel = sub.add_parser("kernel-check",
                              help="compare approximate RBF kernel against the exact one")
    p_kernel.add_argument("--d", type=int, default=8, help="input dimension")
    p_kernel.add_argument("--sigma", type=float, default=1.0)
    p_kernel.add_argument("--blocks", default="1,64",
                          help="comma-separated block counts (default 1,64)")
    p_kernel.add_argument("--pairs", type=int, default=200)
    p_kernel.add_argument("--seed", type=int, default=0)
    p_kernel.add_argument("--out", default="kernel_check.csv", help="output CSV path")

    p_algebra = sub.add_parser("algebra-check",
                               help="verify the product-algebra identities on seeded draws")
    p_algebra.add_argument("--seed", type=int, default=0)
    p_algebra.add_argument("--max-dim", type=int, default=6,
                           help="largest factor dimension (2..8)")
    p_algebra.add_argument("--out", default="algebra_check.csv", help="output CSV path")

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("--kind", required=True, choices=("blobs", "xor"))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--per-class", type=int, default=100,
                       help="blobs: samples per class")
    p_gen.add_argument("--dims", type=int, default=4, help="blobs: feature dimension")
    p_gen.add_argument("--classes", type=int, default=2, help="blobs: class count")
    p_gen.add_argument("--spread", type=float, default=0.3,
                       help="blobs: noise scale around each center")
    p_gen.add_argument("--samples", type=int, default=200, help="xor: total samples")
    p_gen.add_argument("--noise", type=float, default=0.0, help="xor: coordinate noise")

    return parser


_HANDLERS = {
    "train": cmd_train,
    "bench": cmd_bench,
    "kernel-check": cmd_kernel_check,
    "algebra-check": cmd_algebra_check,
    "gen-data": cmd_gen_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help.
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ParameterError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: training diverged ({exc})", file=sys.stderr)
        return 3
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
