import csv
import json
import os
import re

import numpy as np
import pytest

from dunets.cli import main

TINY = ["--counts", "24,8,8"]
FAST = ["--epochs", "2", "--batch-size", "8", "--T", "2", "--n", "5",
        "--width", "4"]


def run(*argv):
    return main(list(argv))


@pytest.fixture
def data_dir(tmp_path):
    path = str(tmp_path / "data")
    assert run("gen-data", "--a", "1", *TINY, "--seed", "0", "--out", path) == 0
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_defaults_give_twelve_observations(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert run("gen-data", "--a", "1", *TINY, "--out", out) == 0
    assert "m=12" in capsys.readouterr().out


def test_gen_data_same_seed_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run("gen-data", "--a", "0", *TINY, "--seed", "3", "--out", out) == 0
    for name in os.listdir(a):
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_gen_data_refuses_overwrite_without_force(tmp_path):
    out = str(tmp_path / "d")
    assert run("gen-data", "--a", "1", *TINY, "--out", out) == 0
    assert run("gen-data", "--a", "1", *TINY, "--out", out) == 2
    assert run("gen-data", "--a", "1", *TINY, "--out", out, "--force") == 0


def test_gen_data_miniature_counts(tmp_path):
    out = str(tmp_path / "d")
    assert run("gen-data", "--a", "0", "--counts", "10,5,5", "--out", out) == 0
    assert os.path.getsize(os.path.join(out, "train_x.f64")) == 10 * 53 * 8


# ---------------------------------------------------------------------------
# train

def test_train_writes_run_artifacts(tmp_path, data_dir):
    out = str(tmp_path / "runs")
    assert run("train", "--model", "lpgd", "--momentum", "none", *FAST,
               "--data", data_dir, "--seed", "0", "--out", out) == 0
    (run_dir,) = [d for d in os.listdir(out)]
    files = set(os.listdir(os.path.join(out, run_dir)))
    assert {"checkpoint.bin", "history.csv", "record.json"} <= files
    with open(os.path.join(out, run_dir, "record.json")) as fh:
        record = json.load(fh)
    assert record["fingerprint"] == run_dir
    assert record["config"]["T"] == 2
    assert "runtime_s" in record
    assert len(record["epoch_seconds"]) == 2  # one per epoch, wall clock
    assert all(s > 0 for s in record["epoch_seconds"])


def test_train_default_unroll_counts(tmp_path, data_dir):
    out = str(tmp_path / "runs")
    assert run("train", "--model", "lpd", "--momentum", "rma", "--epochs", "1",
               "--batch-size", "8", "--n", "5", "--width", "4",
               "--data", data_dir, "--out", out) == 0
    (run_dir,) = os.listdir(out)
    with open(os.path.join(out, run_dir, "record.json")) as fh:
        record = json.load(fh)
    assert record["config"]["T"] == 10
    assert record["config"]["gamma"] == 0.9
    assert record["config"]["eta"] == 1e-3


def test_train_parser_momentum_defaults():
    from dunets.cli import build_parser
    args = build_parser().parse_args(
        ["train", "--model", "lpgd", "--momentum", "ma", "--data", "x"])
    assert args.gamma == 0.9 and args.eta == 1e-3
    assert args.T is None  # resolved to the variant default later


def test_train_fingerprint_conflict(tmp_path, data_dir):
    out = str(tmp_path / "runs")
    argv = ["train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out]
    assert run(*argv) == 0
    assert run(*argv) == 3
    assert run(*argv, "--force") == 0


def test_interrupted_record_write_leaves_old_record_or_none(tmp_path, data_dir,
                                                            torn_writes):
    out = str(tmp_path / "runs")
    argv = ["train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out]
    torn_writes.add("record.json")
    with pytest.raises(OSError, match="torn"):
        run(*argv)
    (run_dir,) = os.listdir(out)
    assert "record.json" not in os.listdir(os.path.join(out, run_dir))
    torn_writes.clear()
    assert run(*argv) == 0  # no half-written record to trust or trip over
    record_path = os.path.join(out, run_dir, "record.json")
    with open(record_path) as fh:
        before = fh.read()
    torn_writes.add("record.json")
    with pytest.raises(OSError, match="torn"):
        run(*argv, "--force")
    with open(record_path) as fh:
        assert fh.read() == before
    assert sorted(os.listdir(os.path.join(out, run_dir))) == [
        "checkpoint.bin", "history.csv", "record.json"]


# ---------------------------------------------------------------------------
# eval

def test_eval_fingerprint_covers_dataset_noise(tmp_path, data_dir):
    noisy = str(tmp_path / "noisy")
    assert run("gen-data", "--a", "1", *TINY, "--seed", "0",
               "--noise-sigma", "0.5", "--out", noisy) == 0
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    ckpt = os.path.join(out, run_dir, "checkpoint.bin")
    results = str(tmp_path / "results.csv")
    for data in (data_dir, noisy):
        assert run("eval", "--checkpoint", ckpt, "--data", data,
                   "--results", results) == 0
    rows = read_rows(results)
    assert len(rows) == 2 and rows[0]["fingerprint"] != rows[1]["fingerprint"]


def test_eval_fingerprint_covers_split(tmp_path, data_dir):
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    ckpt = os.path.join(out, run_dir, "checkpoint.bin")
    results = str(tmp_path / "results.csv")
    for split in ("val", "test"):
        assert run("eval", "--checkpoint", ckpt, "--data", data_dir,
                   "--split", split, "--results", results) == 0
    rows = read_rows(results)
    assert [r["split"] for r in rows] == ["val", "test"]
    assert rows[0]["fingerprint"] != rows[1]["fingerprint"]


def test_eval_matches_training_record(tmp_path, data_dir, capsys):
    out = str(tmp_path / "runs")
    assert run("train", "--model", "lpgd", *FAST, "--data", data_dir,
               "--out", out) == 0
    (run_dir,) = os.listdir(out)
    with open(os.path.join(out, run_dir, "record.json")) as fh:
        record = json.load(fh)
    capsys.readouterr()
    ckpt = os.path.join(out, run_dir, "checkpoint.bin")
    results = str(tmp_path / "eval.csv")
    assert run("eval", "--checkpoint", ckpt, "--data", data_dir,
               "--results", results) == 0
    printed = capsys.readouterr().out
    assert re.search(r"test split: mse \d", printed)
    (row,) = read_rows(results)
    # same code path as training-time evaluation: identical to the record
    assert float(row["mse_mean"]) == record["mse_mean"]
    assert float(row["mse_std"]) == record["mse_std"]


def test_eval_reports_split_name(tmp_path, data_dir, capsys):
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    ckpt = os.path.join(out, run_dir, "checkpoint.bin")
    capsys.readouterr()
    assert run("eval", "--checkpoint", ckpt, "--data", data_dir,
               "--split", "val") == 0
    assert "val split:" in capsys.readouterr().out


def test_eval_rejects_mismatched_operator(tmp_path, data_dir):
    other = str(tmp_path / "other")
    assert run("gen-data", "--a", "2", *TINY, "--seed", "9", "--out", other) == 0
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    ckpt = os.path.join(out, run_dir, "checkpoint.bin")
    assert run("eval", "--checkpoint", ckpt, "--data", other) == 3


def test_eval_appends_results_row(tmp_path, data_dir):
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    ckpt = os.path.join(out, run_dir, "checkpoint.bin")
    results = str(tmp_path / "results.csv")
    assert run("eval", "--checkpoint", ckpt, "--data", data_dir,
               "--results", results) == 0
    rows = read_rows(results)
    assert len(rows) == 1 and rows[0]["split"] == "test"


# ---------------------------------------------------------------------------
# sweep

SWEEP_FAST = ["--counts", "24,8,8", "--epochs", "1", "--batch-size", "8",
              "--n", "5", "--width", "4"]


def test_sweep_a_grid_rows(tmp_path):
    out = str(tmp_path / "sweep")
    assert run("sweep", "--kind", "a", "--grid", "0,1", "--models", "lpd",
               "--momenta", "none", "--seeds", "0,1", *SWEEP_FAST,
               "--out", out) == 0
    rows = read_rows(os.path.join(out, "results.csv"))
    assert len(rows) == 4  # two a values x two seeds
    assert {r["a"] for r in rows} == {"0.0", "1.0"}
    assert rows == sorted(rows, key=lambda r: r["fingerprint"])


def test_sweep_resume_matches_uninterrupted(tmp_path):
    resumed = str(tmp_path / "resumed")
    fresh = str(tmp_path / "fresh")
    common = ["--kind", "a", "--grid", "1", "--models", "lpd",
              "--momenta", "none,ma", *SWEEP_FAST]
    # partial run (one momentum), then the full grid on the same directory
    assert run("sweep", *common[:6], "--momenta", "none", *SWEEP_FAST,
               "--seeds", "0", "--out", resumed) == 0
    assert run("sweep", *common, "--seeds", "0", "--out", resumed) == 0
    assert run("sweep", *common, "--seeds", "0", "--out", fresh) == 0
    with open(os.path.join(resumed, "results.csv")) as fa, \
            open(os.path.join(fresh, "results.csv")) as fb:
        assert fa.read() == fb.read()


def test_sweep_skips_completed_cells(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    argv = ["sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
            "--momenta", "none", "--seeds", "0", *SWEEP_FAST, "--out", out]
    assert run(*argv) == 0
    capsys.readouterr()
    assert run(*argv) == 0
    assert "0 ran, 1 skipped" in capsys.readouterr().out


def test_sweep_new_noise_level_gets_its_own_data_and_runs(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    argv = ["sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
            "--momenta", "none", "--seeds", "0", *SWEEP_FAST, "--out", out]
    assert run(*argv) == 0
    capsys.readouterr()
    assert run(*argv, "--noise-sigma", "0.5") == 0
    assert "1 ran, 0 skipped" in capsys.readouterr().out
    rows = read_rows(os.path.join(out, "results.csv"))
    assert len(rows) == 2 and rows[0]["fingerprint"] != rows[1]["fingerprint"]
    sigmas = set()
    for name in os.listdir(os.path.join(out, "datasets")):
        with open(os.path.join(out, "datasets", name, "manifest.txt")) as fh:
            sigmas.update(line.strip() for line in fh
                          if line.startswith("noise_sigma="))
    assert sigmas == {"noise_sigma=0.0", "noise_sigma=0.5"}
    for fp in (r["fingerprint"] for r in rows):
        with open(os.path.join(out, "runs", fp, "record.json")) as fh:
            config = json.load(fh)["config"]
        assert config["tv_scale"] == 0.1 and config["val_size"] == 8


def test_sweep_rma_structure_grid(tmp_path):
    out = str(tmp_path / "sweep")
    assert run("sweep", "--kind", "rma-structure", "--grid", "1,2;4,5",
               "--seeds", "0", *SWEEP_FAST, "--out", out) == 0
    rows = read_rows(os.path.join(out, "results.csv"))
    assert len(rows) == 4
    assert {(r["L"], r["n"]) for r in rows} == {("1", "4"), ("1", "5"),
                                                ("2", "4"), ("2", "5")}


def test_sweep_datasize_deterministic_subsets(tmp_path):
    out = str(tmp_path / "sweep")
    argv = ["sweep", "--kind", "datasize", "--grid", "50", "--models", "lpd",
            "--momenta", "none", "--seeds", "0", *SWEEP_FAST, "--out", out]
    assert run(*argv) == 0
    rows = read_rows(os.path.join(out, "results.csv"))
    assert rows[0]["data_size"] == "12"  # half of 24
    # rerunning with --force-free resume leaves the results identical
    assert run(*argv) == 0
    assert read_rows(os.path.join(out, "results.csv")) == rows


def test_sweep_unroll_grid(tmp_path):
    out = str(tmp_path / "sweep")
    assert run("sweep", "--kind", "unroll", "--grid", "1,2", "--seeds", "0",
               *SWEEP_FAST, "--out", out) == 0
    rows = read_rows(os.path.join(out, "results.csv"))
    assert {r["T"] for r in rows} == {"1", "2"}


def test_sweep_default_grids_expand_to_expected_cells():
    from dunets.cli import _sweep_cells, build_parser
    parser = build_parser()

    args = parser.parse_args(["sweep", "--kind", "a", "--seeds", "0"])
    cells = _sweep_cells(args)
    assert len(cells) == 4 * 3 * 3  # a in {0,1,2,4} x 3 variants x 3 modes
    assert {cfg["T"] for cfg, _ in cells if cfg["variant"] == "lpgd"} == {43, 20}

    args = parser.parse_args(["sweep", "--kind", "rma-structure", "--seeds", "0"])
    cells = _sweep_cells(args)
    assert len(cells) == 9  # L in {1,2,3} x n in {30,50,70}
    assert {(c["L"], c["n"]) for c, _ in cells} == {(l, n) for l in (1, 2, 3)
                                                   for n in (30, 50, 70)}

    args = parser.parse_args(["sweep", "--kind", "datasize", "--seeds", "0,1"])
    cells = _sweep_cells(args)
    assert len(cells) == 4 * 3 * 2  # four fractions x 3 modes x 2 seeds
    assert {c["train_fraction"] for c, _ in cells} == {0.1, 0.25, 0.5, 1.0}

    args = parser.parse_args(["sweep", "--kind", "unroll", "--seeds", "0"])
    cells = _sweep_cells(args)
    assert [c["T"] for c, _ in cells] == [6, 8, 10, 12, 14, 16]


def test_sweep_parallel_jobs_match_serial_results(tmp_path):
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "parallel")
    argv = ["sweep", "--kind", "a", "--grid", "0,1", "--models", "lpd",
            "--momenta", "none", "--seeds", "0", *SWEEP_FAST]
    assert run(*argv, "--jobs", "1", "--out", serial) == 0
    assert run(*argv, "--jobs", "2", "--out", parallel) == 0
    with open(os.path.join(serial, "results.csv")) as fa, \
            open(os.path.join(parallel, "results.csv")) as fb:
        assert fa.read() == fb.read()


def test_sweep_reports_failed_cells_and_exits_nonzero(tmp_path, monkeypatch, capsys):
    import dunets.cli as cli

    def exploding(payload):
        config, _, _ = payload
        if config["momentum"] == "ma":
            raise RuntimeError("synthetic cell failure")
        return cli._train_one(*payload, reuse=True)

    monkeypatch.setattr(cli, "_run_cell", exploding)
    out = str(tmp_path / "sweep")
    code = run("sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
               "--momenta", "none,ma", "--seeds", "0", *SWEEP_FAST,
               "--out", out)
    assert code == 2
    captured = capsys.readouterr()
    assert "1 failed" in captured.out
    assert "synthetic cell failure" in captured.err
    # the healthy cell still landed in the results
    rows = read_rows(os.path.join(out, "results.csv"))
    assert len(rows) == 1 and rows[0]["momentum"] == "none"


def test_interrupted_dataset_write_leaves_no_manifest(tmp_path, monkeypatch):
    import dunets.volterra as volterra
    from dunets.cli import _dataset_cache

    gen_kwargs = {"a": 1.0, "counts": (24, 8, 8), "seed": 0}
    root = str(tmp_path / "sweep")
    path = _dataset_cache(root, **gen_kwargs)
    expected = volterra.load_dataset(path)

    def failing_open(file, mode="r", *args, **kwargs):
        if str(file).endswith("val_y.f64"):
            open(file, mode).close()  # truncated, as by a kill mid-write
            raise OSError("synthetic write failure")
        return open(file, mode, *args, **kwargs)

    # rewrite the finished dataset and fail half-way through its arrays
    monkeypatch.setattr(volterra, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="synthetic"):
        volterra.save_dataset(volterra.gen_dataset(**gen_kwargs), path, force=True)
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(path, "manifest.txt"))

    assert _dataset_cache(root, **gen_kwargs) == path
    reloaded = volterra.load_dataset(path)
    assert reloaded.manifest() == expected.manifest()
    for split in volterra.SPLITS:
        for a, b in zip(reloaded.splits[split], expected.splits[split]):
            assert np.array_equal(a, b)


def test_fingerprints_differ_when_any_field_differs():
    from dunets.cli import fingerprint
    base = {"variant": "lpd", "momentum": "rma", "T": 10, "L": 1, "n": 50,
            "width": 32, "seed": 0, "epochs": 20, "batch_size": 32,
            "lr0": 1e-3, "train_fraction": 1.0, "gamma": 0.9, "eta": 1e-3,
            "a": 1.0, "data_size": 10000, "op_fingerprint": "abc"}
    seen = {fingerprint(base)}
    for key, value in [("momentum", "ma"), ("T", 11), ("L", 2), ("n", 51),
                       ("seed", 1), ("epochs", 21), ("batch_size", 16),
                       ("lr0", 2e-3), ("train_fraction", 0.5),
                       ("gamma", 0.8), ("eta", 1e-2), ("a", 2.0),
                       ("data_size", 5000), ("op_fingerprint", "abd")]:
        changed = dict(base)
        changed[key] = value
        seen.add(fingerprint(changed))
    assert len(seen) == 15


def test_train_fingerprint_golden(data_dir):
    from dunets.cli import (_full_config, _train_config_from_args,
                            build_parser, fingerprint)
    from dunets.volterra import load_dataset
    dataset = load_dataset(data_dir)
    argv = ["train", "--model", "lpd", "--momentum", "rma", *FAST,
            "--data", data_dir]
    prints = []
    for extra in ([], ["--train-fraction", "0.5"]):
        args = build_parser().parse_args(argv + extra)
        prints.append(fingerprint(_full_config(_train_config_from_args(args),
                                               dataset)))
    assert prints == ["60fc351c25c9205d", "9440601a35090703"]


# ---------------------------------------------------------------------------
# report

def seed_results_csv(path):
    from dunets.cli import RESULT_COLUMNS, _append_result
    base = {"variant": "lpd", "momentum": "rma", "T": 10, "L": 1, "n": 50,
            "a": 1.0, "data_size": 100, "epochs": 2, "batch_size": 8,
            "lr0": 0.001, "width": 4, "split": "test", "mse_std": 0.0}
    for seed, value in ((0, 1.0), (1, 2.0), (2, 3.0)):
        row = dict(base)
        row.update({"fingerprint": f"f{seed}", "seed": seed, "mse_mean": value})
        _append_result(path, row)


def test_interrupted_results_sort_keeps_every_row(tmp_path, torn_writes):
    from dunets.cli import _append_result, _sort_results
    path = str(tmp_path / "results.csv")
    seed_results_csv(path)
    _append_result(path, {**read_rows(path)[0], "fingerprint": "a0"})
    with open(path) as fh:
        before = fh.read()
    torn_writes.add("results.csv")
    with pytest.raises(OSError, match="torn"):
        _sort_results(path)
    with open(path) as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["results.csv"]
    torn_writes.clear()
    _sort_results(path)
    assert [r["fingerprint"] for r in read_rows(path)] == ["a0", "f0", "f1", "f2"]


def test_report_aggregates_mean_and_sample_std(tmp_path):
    results = str(tmp_path / "results.csv")
    seed_results_csv(results)
    out = str(tmp_path / "agg.csv")
    assert run("report", "--results", results, "--out", out) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["mse_mean"]) == 2.0
    assert float(rows[0]["mse_std"]) == 1.0  # std of {1,2,3} with n-1
    assert rows[0]["n_runs"] == "3"


def test_report_is_idempotent_on_aggregated_input(tmp_path):
    results = str(tmp_path / "results.csv")
    seed_results_csv(results)
    first = str(tmp_path / "agg1.csv")
    second = str(tmp_path / "agg2.csv")
    assert run("report", "--results", results, "--out", first) == 0
    assert run("report", "--results", first, "--out", second) == 0
    with open(first) as fa, open(second) as fb:
        assert fa.read() == fb.read()


def test_report_svg_one_polyline_per_series(tmp_path):
    from dunets.cli import RESULT_COLUMNS, _append_result
    results = str(tmp_path / "results.csv")
    for variant, momentum in (("lpd", "none"), ("lpd", "rma"), ("lpgd", "ma")):
        for a, value in ((0.0, 1.0), (1.0, 2.0)):
            row = {c: "" for c in RESULT_COLUMNS}
            row.update({"fingerprint": f"{variant}{momentum}{a}",
                        "variant": variant, "momentum": momentum,
                        "T": 2, "L": 1, "n": 5, "a": a, "data_size": 10,
                        "seed": 0, "epochs": 1, "batch_size": 8, "lr0": 1e-3,
                        "width": 4, "split": "test", "mse_mean": value,
                        "mse_std": 0.0})
            _append_result(results, row)
    out = str(tmp_path / "plot.svg")
    assert run("report", "--results", results, "--format", "svg",
               "--x", "a", "--out", out) == 0
    svg = open(out).read()
    assert svg.count("<polyline") == 3
    assert "test MSE" in svg


def test_report_empty_results_fails(tmp_path):
    results = str(tmp_path / "results.csv")
    with open(results, "w") as fh:
        fh.write(",".join(["fingerprint", "mse_mean"]) + "\n")
    assert run("report", "--results", results, "--out",
               str(tmp_path / "agg.csv")) == 2


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_exit_code():
    assert run("train", "--model", "nope", "--data", "x") == 1
    assert run("no-such-command") == 1


def test_missing_dataset_is_run_failure(tmp_path):
    assert run("train", "--model", "lpgd", "--data",
               str(tmp_path / "missing"), "--out", str(tmp_path / "o")) == 2
