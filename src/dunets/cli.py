"""Command-line experiment runner.

Subcommands: gen-data, train, eval, sweep, report.  Every run is keyed by a
fingerprint of its full configuration; sweeps skip fingerprints already in
the results CSV, so an interrupted sweep resumes to the identical file.

Exit codes: 0 success, 1 usage, 2 run failure, 3 fingerprint conflict.
"""

import argparse
import csv
import ctypes
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .atomic import atomic_write
from .training import (TrainConfig, TrainingDiverged, evaluate,
                       subsample_train, train)
from .unrolling import (MOMENTA, VARIANTS, ModelConfig, UnrollModel,
                        default_unroll, load_model, save_model)
from .volterra import gen_dataset, load_dataset, save_dataset

RESULTS_ENV = "DUNETS_RESULTS"

RESULT_COLUMNS = ["fingerprint", "variant", "momentum", "T", "L", "n", "a",
                  "data_size", "seed", "epochs", "batch_size", "lr0",
                  "width", "split", "mse_mean", "mse_std"]

# results column -> ModelConfig field, for the columns that name the model
MODEL_COLUMNS = {"variant": "variant", "momentum": "momentum", "T": "unroll",
                 "L": "lstm_layers", "n": "lstm_hidden", "width": "width",
                 "seed": "seed", "gamma": "gamma", "eta": "eta"}

AGG_COLUMNS = ["variant", "momentum", "T", "L", "n", "a", "data_size",
               "epochs", "batch_size", "lr0", "width", "split",
               "mse_mean", "mse_std", "n_runs"]


class UsageError(Exception):
    pass


class FingerprintConflict(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _ints(text):
    return [int(v) for v in text.split(",") if v != ""]


def _floats(text):
    return [float(v) for v in text.split(",") if v != ""]


def fingerprint(config):
    """Short stable hash over every field of a run configuration."""
    canon = ";".join(f"{k}={config[k]!r}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _append_result(path, row):
    exists = os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(RESULT_COLUMNS)
        writer.writerow([_format_cell(row[c]) for c in RESULT_COLUMNS])


def _read_results(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sort_results(path):
    rows = _read_results(path)
    rows.sort(key=lambda r: r["fingerprint"])
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in RESULT_COLUMNS])


# ---------------------------------------------------------------------------
# gen-data

def cmd_gen_data(args):
    counts = _ints(args.counts)
    ds = gen_dataset(args.a, counts=tuple(counts), seed=args.seed, n=args.n,
                     k=args.k, stride=args.stride, tv_scale=args.tv_scale,
                     noise_sigma=args.noise_sigma)
    save_dataset(ds, args.out, force=args.force)
    print(f"wrote dataset to {args.out}")
    for key, value in ds.manifest().items():
        print(f"  {key}={value}")
    return 0


# ---------------------------------------------------------------------------
# train

def _dataset_fields(dataset, train_size):
    """The fingerprint fields that a run's dataset determines."""
    return {"a": dataset.operator.a, "data_size": train_size,
            "val_size": dataset.counts[1], "test_size": dataset.counts[2],
            "tv_scale": dataset.tv_scale, "noise_sigma": dataset.noise_sigma,
            "op_fingerprint": dataset.operator.fingerprint()}


def _full_config(config, dataset):
    """Extend a run config with the dataset-derived fingerprint fields."""
    size = len(dataset.splits["train"][0])
    if config["train_fraction"] < 1.0:
        size = len(subsample_train(dataset, config["train_fraction"],
                                   config["seed"])[0])
    return {**config, **_dataset_fields(dataset, size)}


def _row_from_record(record, split="test"):
    full = record["config"]
    row = {c: full.get(c, "") for c in RESULT_COLUMNS}
    row.update({"fingerprint": record["fingerprint"], "split": split,
                "mse_mean": record["mse_mean"], "mse_std": record["mse_std"]})
    return row


def _train_one(config, data_dir, out_root, force=False, reuse=False):
    """Train a single configuration; writes checkpoint/history/record.

    Returns the results-CSV row.  ``config`` must carry: variant, momentum,
    T, L, n, width, seed, epochs, batch_size, lr0, train_fraction, gamma, eta.
    With ``reuse`` an already-recorded run returns its stored row instead of
    raising a conflict.
    """
    dataset = load_dataset(data_dir)
    op = dataset.operator
    override = None
    if config["train_fraction"] < 1.0:
        override = subsample_train(dataset, config["train_fraction"], config["seed"])

    full = _full_config(config, dataset)
    fp = fingerprint(full)

    run_dir = os.path.join(out_root, fp)
    record_path = os.path.join(run_dir, "record.json")
    if os.path.exists(record_path) and not force:
        if reuse:
            with open(record_path) as fh:
                return _row_from_record(json.load(fh))
        raise FingerprintConflict(
            f"run {fp} already recorded in {run_dir} (use --force to redo)")
    os.makedirs(run_dir, exist_ok=True)

    model = UnrollModel.build(
        operator=op, **{f: config[c] for c, f in MODEL_COLUMNS.items()})
    tc = TrainConfig(epochs=config["epochs"], batch_size=config["batch_size"],
                     lr0=config["lr0"], seed=config["seed"])
    started = time.time()
    history = train(model, dataset, tc, train_override=override)
    runtime = time.time() - started

    x_test, y_test = dataset.splits["test"]
    stats = evaluate(model, x_test, y_test)

    ckpt_path = os.path.join(run_dir, "checkpoint.bin")
    hist_path = os.path.join(run_dir, "history.csv")
    save_model(model, ckpt_path)
    history.to_csv(hist_path)
    record = {
        "fingerprint": fp, "config": full,
        "mse_mean": stats.mean, "mse_std": stats.std,
        "best_epoch": history.best_epoch, "best_val": history.best_val,
        "runtime_s": runtime, "started": started,
        "epoch_seconds": history.epoch_seconds,
        "checkpoint": ckpt_path, "history": hist_path,
    }
    with atomic_write(record_path) as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return _row_from_record(record)


def _train_config_from_args(args):
    unroll = args.T if args.T is not None else default_unroll(args.model, args.momentum)
    return {
        "variant": args.model, "momentum": args.momentum, "T": unroll,
        "L": args.L, "n": args.n, "width": args.width, "seed": args.seed,
        "epochs": args.epochs, "batch_size": args.batch_size, "lr0": args.lr,
        "train_fraction": args.train_fraction, "gamma": args.gamma,
        "eta": args.eta,
    }


def cmd_train(args):
    row = _train_one(_train_config_from_args(args), args.data, args.out,
                     force=args.force)
    print(f"run {row['fingerprint']}: test mse {row['mse_mean']:.6e} "
          f"(std {row['mse_std']:.3e})")
    if args.results:
        _append_result(args.results, row)
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args):
    model = load_model(args.checkpoint)
    dataset = load_dataset(args.data)
    if model.operator.fingerprint() != dataset.operator.fingerprint():
        raise FingerprintConflict(
            "checkpoint and dataset operators differ "
            f"({model.operator.fingerprint()} vs {dataset.operator.fingerprint()})")
    x, y = dataset.splits[args.split]
    stats = evaluate(model, x, y)
    print(f"{args.split} split: mse {stats.mean:.6e} (std {stats.std:.3e}, "
          f"{len(x)} samples)")
    if args.results:
        config = {column: getattr(model.config, field)
                  for column, field in MODEL_COLUMNS.items()}
        config.update(_dataset_fields(dataset, len(dataset.splits["train"][0])),
                      split=args.split)
        record = {"fingerprint": fingerprint(config), "config": config,
                  "mse_mean": stats.mean, "mse_std": stats.std}
        _append_result(args.results, _row_from_record(record, args.split))
    return 0


# ---------------------------------------------------------------------------
# sweep

def _dataset_cache(root, **gen_kwargs):
    """Generate a sweep dataset once, in a directory named by its arguments."""
    path = os.path.join(root, "datasets", fingerprint(gen_kwargs))
    if not os.path.exists(os.path.join(path, "manifest.txt")):
        save_dataset(gen_dataset(**gen_kwargs), path, force=True)
    return path


def _sweep_cells(args):
    """Expand the sweep kind and grid into (config, gen_dataset kwargs) cells."""
    seeds = _ints(args.seeds)
    counts = tuple(_ints(args.counts))
    models = args.models.split(",") if args.models else None
    momenta = args.momenta.split(",") if args.momenta else None
    base = {
        "L": args.L, "n": args.n, "width": args.width, "epochs": args.epochs,
        "batch_size": args.batch_size, "lr0": args.lr, "train_fraction": 1.0,
        "gamma": args.gamma, "eta": args.eta,
    }
    cells = []

    def add(variant, momentum, seed, a, T=None, **extra):
        config = dict(base)
        config.update({
            "variant": variant, "momentum": momentum, "seed": seed,
            "T": T if T is not None else default_unroll(variant, momentum),
        })
        config.update(extra)
        cells.append((config, {"a": a, "counts": counts,
                               "seed": args.data_seed,
                               "tv_scale": args.tv_scale,
                               "noise_sigma": args.noise_sigma}))

    if args.kind == "a":
        grid = _floats(args.grid) if args.grid else [0.0, 1.0, 2.0, 4.0]
        for a in grid:
            for variant in models or VARIANTS:
                for momentum in momenta or MOMENTA:
                    for seed in seeds:
                        add(variant, momentum, seed, a)
    elif args.kind == "datasize":
        grid = _floats(args.grid) if args.grid else [10.0, 25.0, 50.0, 100.0]
        for pct in grid:
            for variant in models or ["lpd"]:
                for momentum in momenta or MOMENTA:
                    for seed in seeds:
                        add(variant, momentum, seed, args.a,
                            train_fraction=pct / 100.0)
    elif args.kind == "rma-structure":
        raw = args.grid or "1,2,3;30,50,70"
        l_part, _, n_part = raw.partition(";")
        for layers in _ints(l_part):
            for hidden in _ints(n_part):
                for seed in seeds:
                    add("lpd", "rma", seed, args.a, L=layers, n=hidden)
    elif args.kind == "unroll":
        grid = _ints(args.grid) if args.grid else [6, 8, 10, 12, 14, 16]
        for unroll in grid:
            for momentum in momenta or ["rma"]:
                for seed in seeds:
                    add("lpd", momentum, seed, args.a, T=unroll)
    else:
        raise UsageError(f"unknown sweep kind {args.kind!r}")
    return cells


def _run_cell(payload):
    config, data_dir, out_root = payload
    return _train_one(config, data_dir, out_root, reuse=True)


def cmd_sweep(args):
    os.makedirs(args.out, exist_ok=True)
    results_path = os.path.join(args.out, "results.csv")
    done = {row["fingerprint"] for row in _read_results(results_path)} \
        if os.path.exists(results_path) else set()

    cells = _sweep_cells(args)
    payloads = []
    dataset_cache = {}
    for config, gen_kwargs in cells:
        data_dir = _dataset_cache(args.out, **gen_kwargs)
        if data_dir not in dataset_cache:
            dataset_cache[data_dir] = load_dataset(data_dir)
        if fingerprint(_full_config(config, dataset_cache[data_dir])) in done:
            continue
        payloads.append((config, data_dir, os.path.join(args.out, "runs")))

    failures = []
    outcomes = []
    if args.jobs > 1 and payloads:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_run_cell_safe, payloads))
    else:
        outcomes = [_run_cell_safe(payload) for payload in payloads]
    for payload, (row, error) in zip(payloads, outcomes):
        if error is not None:
            failures.append((payload[0], error))
        elif row is not None:
            _append_result(results_path, row)

    if os.path.exists(results_path):
        _sort_results(results_path)
    print(f"sweep complete: {len(payloads) - len(failures)} ran, "
          f"{len(cells) - len(payloads)} skipped, {len(failures)} failed")
    if failures:
        for config, error in failures:
            print(f"  FAILED {config['variant']}-{config['momentum']} "
                  f"seed={config['seed']}: {error}", file=sys.stderr)
        return 2
    return 0


def _run_cell_safe(payload):
    try:
        return _run_cell(payload), None
    except Exception as exc:  # report, do not kill the sweep
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# report

def _aggregate(rows):
    """Collapse seeds: mean over runs of mse_mean, std with n-1 weighting."""
    groups = {}
    for row in rows:
        key = tuple(row[c] for c in AGG_COLUMNS[:12])
        groups.setdefault(key, []).append(float(row["mse_mean"]))
    out = []
    for key in sorted(groups):
        values = groups[key]
        agg = dict(zip(AGG_COLUMNS[:12], key))
        agg["mse_mean"] = float(np.mean(values))
        agg["mse_std"] = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        agg["n_runs"] = len(values)
        out.append(agg)
    return out


def _write_agg_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGG_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in AGG_COLUMNS])


def _svg_plot(rows, x_col, path):
    """Self-contained SVG line plot: one polyline per variant-momentum series."""
    series = {}
    for row in rows:
        label = f"{row['variant']}-{row['momentum']}" if row["momentum"] != "none" \
            else row["variant"]
        series.setdefault(label, []).append(
            (float(row[x_col]), float(row["mse_mean"])))
    width, height, margin = 640, 440, 60
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + max(abs(y0), 1e-12)

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f", "#17becf"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for i, tick in enumerate(np.linspace(x0, x1, 5)):
        parts.append(f'<text x="{sx(tick):.1f}" y="{height - margin + 20}" '
                     f'font-size="11" text-anchor="middle">{tick:g}</text>')
    for tick in np.linspace(y0, y1, 5):
        parts.append(f'<text x="{margin - 8}" y="{sy(tick):.1f}" font-size="11" '
                     f'text-anchor="end">{tick:.3e}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 12}" font-size="13" '
                 f'text-anchor="middle">{x_col}</text>')
    parts.append(f'<text x="16" y="{height / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {height / 2})">'
                 'test MSE</text>')
    for i, (label, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        color = palette[i % len(palette)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_report(args):
    rows = _read_results(args.results)
    if not rows:
        raise RuntimeError(f"{args.results}: no result rows to report")
    already_aggregated = "n_runs" in rows[0]
    agg = rows if already_aggregated else _aggregate(rows)
    if args.format == "csv":
        _write_agg_csv(args.out, agg)
    else:
        _svg_plot(agg, args.x, args.out)
    print(f"wrote {args.format} report ({len(agg)} cells) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

def build_parser():
    parser = _Parser(prog="dunets",
                     description="Unrolled reconstruction experiments on "
                                 "nonlinear deconvolution")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a paired dataset")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--counts", default="10000,1000,1000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=53)
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--tv-scale", type=float, default=0.1)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model configuration")
    p.add_argument("--model", choices=VARIANTS, required=True)
    p.add_argument("--momentum", choices=MOMENTA, default="none")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--L", type=int, default=ModelConfig.lstm_layers)
    p.add_argument("--n", type=int, default=ModelConfig.lstm_hidden)
    p.add_argument("--width", type=int, default=ModelConfig.width)
    p.add_argument("--gamma", type=float, default=ModelConfig.gamma)
    p.add_argument("--eta", type=float, default=ModelConfig.eta)
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--train-fraction", type=float, default=1.0)
    p.add_argument("--out", default=os.environ.get(RESULTS_ENV, "results"))
    p.add_argument("--results", default=None,
                   help="optional results CSV to append the test MSE to")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--results", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a grid of configurations")
    p.add_argument("--kind", choices=["a", "datasize", "rma-structure", "unroll"],
                   required=True)
    p.add_argument("--grid", default=None,
                   help="kind-specific grid, e.g. '0,1,2,4' or '1,2,3;30,50,70'")
    p.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p.add_argument("--models", default=None)
    p.add_argument("--momenta", default=None)
    p.add_argument("--a", type=float, default=1.0,
                   help="nonlinearity for kinds that fix it")
    p.add_argument("--counts", default="10000,1000,1000")
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--tv-scale", type=float, default=0.1)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--L", type=int, default=ModelConfig.lstm_layers)
    p.add_argument("--n", type=int, default=ModelConfig.lstm_hidden)
    p.add_argument("--width", type=int, default=ModelConfig.width)
    p.add_argument("--gamma", type=float, default=ModelConfig.gamma)
    p.add_argument("--eta", type=float, default=ModelConfig.eta)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=os.environ.get(RESULTS_ENV, "results"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate a results CSV, or plot it")
    p.add_argument("--results", required=True)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--x", default="a", help="swept column for svg plots")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def _keep_temporaries_in_heap():
    """Serve freed blocks up to 32 MiB from glibc's heap; a no-op off glibc.

    By default glibc maps every block over 128 KiB afresh and unmaps it on
    free, so each large numpy temporary of a B=256 batch, and each column
    block of conv1d's second lane, costs fresh page faults.  These are the
    thresholds perfbench runs under.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None):
    _keep_temporaries_in_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FingerprintConflict as exc:
        print(f"fingerprint conflict: {exc}", file=sys.stderr)
        return 3
    except TrainingDiverged as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FileExistsError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
