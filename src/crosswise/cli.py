"""Command-line front end: train, bench, kernel-check, algebra-check, gen-data.

Exit codes: 0 success, 1 check failure, 2 usage/config error, 3 divergence,
4 I/O error.  All commands are deterministic for a given config and seed
except wall-clock timing columns.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

from .datasets import Dataset, gen_blobs, gen_xor, load_csv, save_csv, write_csv
from .errors import (
    ConfigError,
    DivergenceError,
    ParameterError,
    SamplingError,
    ShapeError,
    expect_int,
    expect_keys as _expect_keys,
    expect_positive,
)
from .features import kernel_exact, feature_map_apply, sample_feature_map
from .network import (
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    build_network,
    count_weights,
    model_to_json,
    network_forward,
    train_network,
)
from .products import verify_identities
from .rng import CounterRng, derive_seed


def _real(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return float(value)


def _path(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be a path string, got {value!r}")
    return value


def _layers(value, context: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context} must be a non-empty list")
    return tuple(_build(LayerSpec, entry, _LAYER_FIELDS, f"{context}[{i}]")
                 for i, entry in enumerate(value))


# One table per config section: each key and the check that returns its value,
# in the order of the parameters the section is built with.  None takes the
# value as it is: a choice of names that the built object checks itself.
_CONFIG_FIELDS = {"version": expect_int, "network": None, "train": None, "data": None,
                  "out": None}
_NETWORK_FIELDS = {"layers": _layers, "seed": expect_int}
_LAYER_FIELDS = {"kind": None, "in": expect_int, "out": expect_int, "activation": None}
_TRAIN_FIELDS = {"lr": _real, "epochs": expect_int, "batch": expect_int, "loss": None,
                 "seed": expect_int}
_OUT_FIELDS = {"history": _path, "model": _path}
# data.kind -> (the dataset builder, the table of its other keys)
_DATA_KINDS = {
    "blobs": (gen_blobs, {"seed": expect_int, "samples_per_class": expect_int,
                          "dims": expect_int, "classes": expect_int, "spread": _real}),
    "xor": (gen_xor, {"seed": expect_int, "samples": expect_int, "noise": _real}),
    "csv": (load_csv, {"path": _path}),
}


def _fields(doc, table: dict, context: str, also=frozenset()) -> list:
    """`doc`'s values in `table` order, each through its check; a missing key or
    one in neither `table` nor `also` is refused."""
    _expect_keys(doc, table.keys() | also, context)
    return [doc[key] if check is None else check(doc[key], f"{context}.{key}")
            for key, check in table.items()]


def _build(make, doc, table: dict, context: str, also=frozenset()):
    """`make(*fields)`, its refusals naming the config keys (see `_named_call`)."""
    return _named_call(make, _fields(doc, table, context, also),
                       [f"{context}.{key}" for key in table], f"{context}: ")


def _named_call(make, values: list, names: list, prefix: str = ""):
    """`make(*values)`; its ParameterError or ShapeError becomes a ConfigError.  A refusal
    that starts with the name of `make`'s parameter i (`name must ...`) names `names[i]`,
    what the user typed, in its place; any other gets `prefix`."""
    try:
        return make(*values)
    except (ParameterError, ShapeError) as exc:
        param, must, rest = str(exc).partition(" must ")
        typed = dict(zip(inspect.signature(make).parameters, names)).get(param) if must else None
        raise ConfigError(f"{typed} must {rest}" if typed else f"{prefix}{exc}") from exc


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
    """(NetworkSpec, TrainConfig, data, out) of a run config; `build_dataset` checks data."""
    version, net_doc, train_doc, data_doc, out_doc = _fields(doc, _CONFIG_FIELDS, "config")
    if version != 1:
        raise ConfigError(f"config version must be 1, got {version!r}")
    net_spec = _build(NetworkSpec, net_doc, _NETWORK_FIELDS, "config.network")
    train_cfg = _build(TrainConfig, train_doc, _TRAIN_FIELDS, "config.train")
    _, data_table = _data_kind(data_doc)
    _expect_keys(data_doc, data_table.keys() | {"kind"}, "config.data")
    history, model = _fields(out_doc, _OUT_FIELDS, "config.out")
    if os.path.realpath(history) == os.path.realpath(model):
        raise ConfigError(f"config.out.history and config.out.model are one file: {model!r}")
    return net_spec, train_cfg, data_doc, out_doc


def _data_kind(data_doc) -> tuple:
    if not isinstance(data_doc, dict) or "kind" not in data_doc:
        raise ConfigError("config.data must be an object with a 'kind' key")
    kind = data_doc["kind"]
    if not isinstance(kind, str) or kind not in _DATA_KINDS:
        raise ConfigError(f"config.data.kind must be blobs, xor or csv, got {kind!r}")
    return _DATA_KINDS[kind]


def build_dataset(data_doc: dict) -> Dataset:
    builder, table = _data_kind(data_doc)
    return _build(builder, data_doc, table, "config.data", also={"kind"})


def _check_writable(*paths) -> None:  # exit 4 before any work
    for path in paths:
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
            raise OSError(f"cannot write {path}: {directory} is missing or not writable")


def cmd_train(args) -> int:
    net_spec, train_cfg, data_doc, out_doc = load_config(args.config)
    _check_writable(out_doc["history"], out_doc["model"])
    data = build_dataset(data_doc)
    net = build_network(net_spec)
    history = _named_call(train_network, [net, train_cfg, data, args.threads],
                          ["config.network", "config.train", "config.data", "--threads"])
    write_csv(out_doc["history"], ("epoch", "loss", "accuracy", "wall_ms"),
              ((r.epoch, r.train_loss, r.train_accuracy, r.wall_ms) for r in history))
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


def _positive_ints(text: str, sep: str, usage: str, count: int | None = None) -> list:
    """The integers >= 1 that `sep` separates in `text` (`count` of them, if given), or
    ParameterError with `usage`.  `int` takes the spaces around each; an empty one is refused."""
    try:
        values = [int(part) for part in text.lower().split(sep)]
    except ValueError:
        values = []
    if not values or min(values) < 1 or count not in (None, len(values)):
        raise ParameterError(f"{usage}, got {text!r}")
    return values


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
    dims = [_positive_ints(item, "x", "--dims expects NxM, two positive integers", 2)
            for item in args.dims]
    rows = []
    for n, m in dims:
        for kind in ("dense", "crosswise"):
            spec = NetworkSpec(layers=(LayerSpec(kind, n, m, "relu"),), seed=args.seed)
            x = CounterRng(args.seed, stream=1).uniform(n, -1.0, 1.0)
            counts = count_weights(spec)
            rows.append((kind, n, m, counts.total_weights, counts.total_mults,
                         _median_forward_ns(build_network(spec), x, args.reps), args.reps))
    write_csv(args.out, ("layer_kind", "n", "m", "weights", "mults", "median_ns", "reps"), rows)
    for row in rows:
        print(f"{row[0]} {row[1]}x{row[2]}: weights={row[3]} mults={row[4]} "
              f"median_ns={row[5]}")
    return 0


def cmd_kernel_check(args) -> int:
    expect_int(args.pairs, "--pairs", ParameterError, 1)
    expect_int(args.d, "--d", ParameterError, 1)
    expect_positive(args.sigma, "--sigma")
    blocks = _positive_ints(args.blocks, ",", "--blocks expects comma-separated positive integers")

    rng = CounterRng(args.seed, stream=0)
    points = rng.normal(2 * args.pairs * args.d).reshape(2 * args.pairs, args.d)
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms < 1e-12):
        raise SamplingError("degenerate pair draw; use a different seed")
    points /= norms[:, None]

    rows = []
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
            rows.append((block_count, i, exact, approx, err))
        summary.append((block_count, float(np.mean(errors)), float(np.max(errors))))
    write_csv(args.out, ("blocks", "pair", "exact", "approx", "abs_error"), rows)
    for block_count, mean_err, max_err in summary:
        print(f"blocks={block_count}: mean abs error {mean_err:.6f}, max {max_err:.6f}")
    return 0


def cmd_algebra_check(args) -> int:
    report = verify_identities(args.seed, args.max_dim)
    write_csv(args.out, ("identity_id", "residual", "pass"),
              ((c.identity_id, c.residual, str(c.passed).lower()) for c in report.checks))
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        print(f"{check.identity_id}: residual {check.residual:.3e} "
              f"(threshold {check.threshold:.1e}) {status}")
    if not report.passed:
        print(f"failing identities: {', '.join(report.failing_ids())}", file=sys.stderr)
        return 1
    return 0


def cmd_gen_data(args) -> int:
    builder, table = _DATA_KINDS[args.kind]  # each flag's dest is its key in the table
    data = _named_call(builder, [getattr(args, key) for key in table],
                       [args.flags[key] for key in table])
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
    p_train.set_defaults(run=cmd_train)
    p_train.add_argument("--config", required=True, help="path to the JSON run config")
    p_train.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; has no effect (must be >= 1)")

    p_bench = sub.add_parser("bench", help="benchmark dense vs crosswise forward passes")
    p_bench.set_defaults(run=cmd_bench)
    p_bench.add_argument("--dims", action="append", required=True, metavar="NxM",
                         help="layer shape to bench; repeatable")
    p_bench.add_argument("--reps", type=int, default=50,
                         help="timing repetitions per row (>= 10, default 50)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="bench.csv", help="output CSV path")

    p_kernel = sub.add_parser("kernel-check",
                              help="compare approximate RBF kernel against the exact one")
    p_kernel.set_defaults(run=cmd_kernel_check)
    p_kernel.add_argument("--d", type=int, default=8, help="input dimension")
    p_kernel.add_argument("--sigma", type=float, default=1.0)
    p_kernel.add_argument("--blocks", default="1,64",
                          help="comma-separated block counts (default 1,64)")
    p_kernel.add_argument("--pairs", type=int, default=200)
    p_kernel.add_argument("--seed", type=int, default=0)
    p_kernel.add_argument("--out", default="kernel_check.csv", help="output CSV path")

    p_algebra = sub.add_parser("algebra-check",
                               help="verify the product-algebra identities on seeded draws")
    p_algebra.set_defaults(run=cmd_algebra_check)
    p_algebra.add_argument("--seed", type=int, default=0)
    p_algebra.add_argument("--max-dim", type=int, default=6,
                           help="largest factor dimension (2..8)")
    p_algebra.add_argument("--out", default="algebra_check.csv", help="output CSV path")

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("--kind", required=True, choices=("blobs", "xor"))
    p_gen.add_argument("--out", required=True, help="output CSV path")
    flags = (  # the builder parameters: a refusal names the flag
        p_gen.add_argument("--seed", type=int, default=0),
        p_gen.add_argument("--per-class", type=int, default=100, dest="samples_per_class",
                           help="blobs: samples per class"),
        p_gen.add_argument("--dims", type=int, default=4, help="blobs: feature dimension"),
        p_gen.add_argument("--classes", type=int, default=2, help="blobs: class count"),
        p_gen.add_argument("--spread", type=float, default=0.3,
                           help="blobs: noise scale around each center"),
        p_gen.add_argument("--samples", type=int, default=200, help="xor: total samples"),
        p_gen.add_argument("--noise", type=float, default=0.0, help="xor: coordinate noise"),
    )
    p_gen.set_defaults(run=cmd_gen_data, flags={a.dest: a.option_strings[0] for a in flags})

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help.
        return int(exc.code or 0)
    try:
        if "out" in args:  # every command but train, whose outputs are in its config
            _check_writable(args.out)
        return args.run(args)
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
