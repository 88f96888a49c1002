import csv
import hashlib
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


def test_gen_data_rejects_a_negative_noise_level(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert run("gen-data", "--a", "1", *TINY, "--noise-sigma", "-0.5",
               "--out", out) == 2
    assert "noise_sigma" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("geometry", [["--stride", "-4"], ["--stride", "0"],
                                      ["--k", "0"],
                                      ["--n", "5", "--k", "9", "--stride", "1"]])
def test_gen_data_rejects_a_geometry_it_cannot_measure(tmp_path, capsys, geometry):
    out = str(tmp_path / "d")
    assert run("gen-data", "--a", "1", "--counts", "4,2,2", *geometry,
               "--out", out) == 2
    assert "stride >= 1 and 1 <= window size k" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("scale", ["nan", "inf", "0"])
def test_gen_data_rejects_a_bad_tv_scale(tmp_path, capsys, scale):
    out = str(tmp_path / "d")
    assert run("gen-data", "--a", "1", "--counts", "4,2,2", "--tv-scale", scale,
               "--out", out) == 2
    assert "tv scale" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", [["gen-data", "--a", "1", "--out", "d"],
                                     ["sweep", "--kind", "a"]],
                         ids=["gen-data", "sweep"])
def test_dataset_flags_are_shared_by_gen_data_and_sweep(command):
    from dunets.cli import build_parser
    parser = build_parser()

    def dataset_flags(*argv):
        args = vars(parser.parse_args([*command, *argv]))
        return {key: args[key] for key in ("counts", "tv_scale", "noise_sigma")}

    assert dataset_flags() == {"counts": "10000,1000,1000", "tv_scale": 0.1,
                               "noise_sigma": 0.0}
    assert dataset_flags("--counts", "5,4,3", "--tv-scale", "0.3",
                         "--noise-sigma", "0.02") == \
        {"counts": "5,4,3", "tv_scale": 0.3, "noise_sigma": 0.02}


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


def test_interrupted_train_results_write_keeps_old_results(tmp_path, data_dir,
                                                           torn_writes):
    out = str(tmp_path / "runs")
    results = tmp_path / "results.csv"
    argv = ["train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out,
            "--results", str(results)]
    assert run(*argv) == 0
    before = results.read_bytes()
    torn_writes.add("results.csv")
    with pytest.raises(OSError, match="torn"):
        run(*argv, "--seed", "1")
    assert results.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["data", "results.csv", "runs"]
    torn_writes.clear()
    assert run(*argv, "--seed", "2") == 0
    rows = read_rows(str(results))
    assert len(rows) == 2 and [r["seed"] for r in rows] == ["0", "2"]
    assert results.read_bytes().startswith(before)


def test_results_flag_refuses_a_report_table(tmp_path, data_dir, capsys):
    results = str(tmp_path / "results.csv")
    seed_results_csv(results)
    table = tmp_path / "table.csv"
    assert run("report", "--results", results, "--out", str(table)) == 0
    before = table.read_bytes()
    out = str(tmp_path / "runs")
    capsys.readouterr()
    assert run("train", "--model", "lpgd", *FAST, "--data", data_dir,
               "--out", out, "--results", str(table)) == 2
    assert str(table) in capsys.readouterr().err
    assert table.read_bytes() == before
    assert not os.path.exists(out)  # refused before training
    assert run("train", "--model", "lpgd", *FAST, "--data", data_dir,
               "--out", out) == 0
    (run_dir,) = os.listdir(out)
    assert run("eval", "--checkpoint", os.path.join(out, run_dir, "checkpoint.bin"),
               "--data", data_dir, "--results", str(table)) == 2
    assert table.read_bytes() == before


@pytest.mark.parametrize("line", ["f9,lpd", "f9" + ",0" * 16],
                         ids=["missing-fields", "extra-fields"])
def test_results_with_a_ragged_row_are_refused_unchanged(tmp_path, line):
    from dunets.cli import _add_results
    path = tmp_path / "results.csv"
    seed_results_csv(str(path))
    with open(path, "a", newline="") as fh:
        fh.write(line + "\r\n")
    before = path.read_bytes()
    with pytest.raises(ValueError, match=re.escape(str(path))):
        _add_results(str(path), [])
    assert path.read_bytes() == before


@pytest.mark.parametrize("flag", ["--L", "--n", "--width"])
def test_train_rejects_a_zero_model_size(tmp_path, data_dir, capsys, flag):
    out = str(tmp_path / "runs")
    assert run("train", "--model", "lpd", "--momentum", "rma", *FAST, flag, "0",
               "--data", data_dir, "--out", out) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("fraction", ["1.5", "nan", "0"])
def test_train_rejects_a_fraction_outside_the_unit_interval(tmp_path, data_dir,
                                                            capsys, fraction):
    # 1.5 and nan trained the whole split under a fingerprint of their own
    out, results = str(tmp_path / "runs"), str(tmp_path / "results.csv")
    assert run("train", "--model", "lpd", *FAST, "--train-fraction", fraction,
               "--data", data_dir, "--out", out, "--results", results) == 2
    assert "train fraction must lie in (0, 1]" in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(results)


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


def test_eval_fingerprint_golden(tmp_path, data_dir):
    from dunets.unrolling import UnrollModel, save_model
    from dunets.volterra import load_dataset
    model = UnrollModel.build("lpd", "rma", load_dataset(data_dir).operator,
                              unroll=2, lstm_hidden=5, width=4)
    ckpt = str(tmp_path / "checkpoint.bin")
    save_model(model, ckpt)
    results = str(tmp_path / "results.csv")
    for split in ("test", "val"):
        assert run("eval", "--checkpoint", ckpt, "--data", data_dir,
                   "--split", split, "--results", results) == 0
    assert [r["fingerprint"] for r in read_rows(results)] == [
        "8f9568bbc3fcbb9b", "b39a6243339fbc2c"]


def test_eval_of_a_non_finite_model_fails_before_writing(tmp_path, data_dir,
                                                        capsys):
    from dunets.unrolling import load_model, save_model
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    model = load_model(os.path.join(out, run_dir, "checkpoint.bin"))
    model.param_list()[0].data[0, 0, 0] = np.nan  # one NaN weight
    bad = str(tmp_path / "nan.bin")
    save_model(model, bad)
    results = str(tmp_path / "results.csv")
    capsys.readouterr()
    assert run("eval", "--checkpoint", bad, "--data", data_dir,
               "--results", results) == 2
    captured = capsys.readouterr()
    assert "non-finite test mse" in captured.err
    assert "mse nan" not in captured.out
    assert not os.path.exists(results)


@pytest.mark.parametrize("key", ["lstm_layers", "op"])
def test_eval_of_a_checkpoint_without_a_manifest_key_fails(tmp_path, data_dir,
                                                         capsys, key):
    from dunets.layers import load_params, save_params
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    arrays, meta = load_params(os.path.join(out, run_dir, "checkpoint.bin"))
    del meta[key]
    bad = str(tmp_path / "bad.bin")
    save_params(bad, list(arrays.items()), meta=meta)
    capsys.readouterr()
    assert run("eval", "--checkpoint", bad, "--data", data_dir) == 2
    assert f"{bad}: manifest lacks key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("a", "1.0"), ("a", float("nan")),
                                        ("n", "11")])
def test_eval_of_a_checkpoint_with_a_bad_operator_field_fails(
        tmp_path, data_dir, capsys, key, value):
    from dunets.layers import load_params, save_params
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    arrays, meta = load_params(os.path.join(out, run_dir, "checkpoint.bin"))
    meta["op"][key] = value
    bad = str(tmp_path / "bad.bin")
    save_params(bad, list(arrays.items()), meta=meta)
    capsys.readouterr()
    assert run("eval", "--checkpoint", bad, "--data", data_dir) == 2
    assert f"{bad}: manifest holds a bad operator" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["operator.w1", "operator.w2"])
def test_eval_of_a_checkpoint_without_an_operator_array_fails(tmp_path, data_dir,
                                                              capsys, name):
    from dunets.layers import load_params, save_params
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    arrays, meta = load_params(os.path.join(out, run_dir, "checkpoint.bin"))
    del arrays[name]
    bad = str(tmp_path / "bad.bin")
    save_params(bad, list(arrays.items()), meta=meta)
    capsys.readouterr()
    assert run("eval", "--checkpoint", bad, "--data", data_dir) == 2
    assert f"{bad}: checkpoint lacks array '{name}'" in capsys.readouterr().err


@pytest.mark.parametrize("counts", ["8,4", "24,8,8,8", "24,8,x", "24,0,8",
                                    "24,-8,8", "24,8,8.0"])
def test_a_dataset_with_malformed_counts_is_named(tmp_path, data_dir, capsys,
                                                  counts):
    manifest = os.path.join(data_dir, "manifest.txt")
    with open(manifest) as fh:
        lines = [f"counts={counts}\n" if line.startswith("counts=") else line
                 for line in fh]
    with open(manifest, "w") as fh:
        fh.writelines(lines)
    out = str(tmp_path / "runs")
    assert run("train", "--model", "lpgd", *FAST, "--data", data_dir,
               "--out", out) == 2
    assert (f"error: {manifest}: counts must be three positive integers"
            in capsys.readouterr().err)
    assert not os.path.exists(out)


def test_eval_on_a_dataset_without_a_manifest_key_fails(tmp_path, data_dir,
                                                        capsys):
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    manifest = os.path.join(data_dir, "manifest.txt")
    with open(manifest) as fh:
        lines = [line for line in fh if not line.startswith("noise_sigma=")]
    with open(manifest, "w") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert run("eval", "--checkpoint", os.path.join(out, run_dir, "checkpoint.bin"),
               "--data", data_dir) == 2
    assert f"{manifest}: manifest lacks key 'noise_sigma'" in capsys.readouterr().err


def checkpoint_corruptions(header, payload):
    """Corruptions of a checkpoint's JSON header and payload, by name."""
    def without(key, entry=False):
        h = json.loads(header)
        (h["tensors"][0] if entry else h).pop(key)
        return json.dumps(h).encode("utf-8")

    def edited(key, value):
        h = json.loads(header)
        h["tensors"][0][key] = value
        return json.dumps(h).encode("utf-8")
    return {
        "not-json": (b"{not json", payload),
        "not-an-object": (b"[1, 2]", payload),
        "no-tensors": (without("tensors"), payload),
        "entry-without-name": (without("name", entry=True), payload),
        "entry-without-shape": (without("shape", entry=True), payload),
        "entry-without-offset": (without("offset", entry=True), payload),
        "short-payload": (header, payload[:-8]),
        "offset-not-an-integer": (edited("offset", "0"), payload),
        "shape-not-integers": (edited("shape", ["a"]), payload),
        "negative-dimension": (edited("shape", [-1]), payload),
    }


@pytest.mark.parametrize("case", ["not-json", "not-an-object", "no-tensors",
                                  "entry-without-name", "entry-without-shape",
                                  "entry-without-offset", "short-payload",
                                  "offset-not-an-integer", "shape-not-integers",
                                  "negative-dimension"])
def test_eval_of_a_malformed_checkpoint_names_the_file(tmp_path, data_dir,
                                                       capsys, case):
    out = str(tmp_path / "runs")
    run("train", "--model", "lpgd", *FAST, "--data", data_dir, "--out", out)
    (run_dir,) = os.listdir(out)
    with open(os.path.join(out, run_dir, "checkpoint.bin"), "rb") as fh:
        header, payload = fh.readline().rstrip(b"\n"), fh.read()
    header, payload = checkpoint_corruptions(header, payload)[case]
    bad = str(tmp_path / "bad.bin")
    with open(bad, "wb") as fh:
        fh.write(header + b"\n" + payload)
    capsys.readouterr()
    assert run("eval", "--checkpoint", bad, "--data", data_dir) == 2
    assert f"error: {bad}: " in capsys.readouterr().err


def test_a_truncated_dataset_array_is_named(tmp_path, data_dir, capsys):
    array = os.path.join(data_dir, "train_x.f64")
    with open(array, "r+b") as fh:
        fh.truncate(os.path.getsize(array) - 8)
    out = str(tmp_path / "runs")
    assert run("train", "--model", "lpgd", *FAST, "--data", data_dir,
               "--out", out) == 2
    assert f"error: {array}: " in capsys.readouterr().err
    assert not os.path.exists(out)


def nan_test_split(monkeypatch):
    """Make every test-split evaluation in the CLI read a NaN mean error."""
    import dunets.cli as cli
    from dunets.training import EvalStats

    def nan_stats(model, x, y):
        return EvalStats(mean=float("nan"), std=float("nan"),
                         per_sample=np.full(len(x), np.nan))

    monkeypatch.setattr(cli, "evaluate", nan_stats)


def test_train_with_a_non_finite_test_mse_fails_before_writing(
        tmp_path, data_dir, monkeypatch, capsys):
    nan_test_split(monkeypatch)
    out = str(tmp_path / "runs")
    results = str(tmp_path / "results.csv")
    assert run("train", "--model", "lpgd", *FAST, "--data", data_dir,
               "--out", out, "--results", results) == 2
    assert "non-finite test mse" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert not os.path.exists(results)


def test_a_diverged_train_leaves_no_run_directory(tmp_path, data_dir,
                                                  monkeypatch, capsys):
    import dunets.cli as cli
    from dunets.training import TrainingDiverged

    def diverging(model, dataset, config):
        raise TrainingDiverged(3, 1e-3, float("inf"))

    monkeypatch.setattr(cli, "train", diverging)
    out = str(tmp_path / "runs")
    assert run("train", "--model", "lpgd", *FAST, "--data", data_dir,
               "--out", out) == 2
    assert "training aborted" in capsys.readouterr().err
    assert not os.path.exists(out)


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


def test_sweep_loads_each_dataset_once(tmp_path, monkeypatch):
    import dunets.cli as cli
    load, loaded = cli.load_dataset, []

    def counting_load(path):
        loaded.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_dataset", counting_load)
    out = str(tmp_path / "sweep")
    # two datasets (a = 0 and 1), four cells
    assert run("sweep", "--kind", "a", "--grid", "0,1", "--models", "lpd",
               "--momenta", "none", "--seeds", "0,1", *SWEEP_FAST,
               "--out", out) == 0
    assert len(read_rows(os.path.join(out, "results.csv"))) == 4
    assert len(loaded) == len(set(loaded)) == 2


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


def test_sweep_datasize_rejects_a_fraction_over_one(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert run("sweep", "--kind", "datasize", "--grid", "150", "--models", "lpd",
               "--momenta", "none", "--seeds", "0", *SWEEP_FAST, "--out", out) == 2
    assert "train fraction must lie in (0, 1]" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["--kind", "rma-structure", "--grid", "1,2"],  # no ';': no hidden sizes
    ["--kind", "a", "--grid", "1", "--seeds", ""],
    ["--kind", "unroll", "--grid", ","],
])
def test_sweep_that_expands_to_no_cells_is_a_usage_error(tmp_path, capsys, argv):
    out = str(tmp_path / "sweep")
    assert run("sweep", *argv, *SWEEP_FAST, "--out", out) == 1
    err = capsys.readouterr().err
    assert "expands to no cells" in err
    assert f"--kind {argv[1]}" in err and f"--grid {argv[3]!r}" in err
    assert not os.path.exists(out)


def test_sweep_default_grids_expand_to_expected_cells():
    from dunets.cli import _sweep_cells, build_parser
    parser = build_parser()

    args = parser.parse_args(["sweep", "--kind", "a", "--seeds", "0"])
    cells = _sweep_cells(args)
    assert len(cells) == 4 * 3 * 3  # a in {0,1,2,4} x 3 variants x 3 modes
    assert {r.model.unroll for r, _ in cells
            if r.model.variant == "lpgd"} == {43, 20}

    args = parser.parse_args(["sweep", "--kind", "rma-structure", "--seeds", "0"])
    cells = _sweep_cells(args)
    assert len(cells) == 9  # L in {1,2,3} x n in {30,50,70}
    assert {(r.model.lstm_layers, r.model.lstm_hidden) for r, _ in cells} == {
        (l, n) for l in (1, 2, 3) for n in (30, 50, 70)}

    args = parser.parse_args(["sweep", "--kind", "datasize", "--seeds", "0,1"])
    cells = _sweep_cells(args)
    assert len(cells) == 4 * 3 * 2  # four fractions x 3 modes x 2 seeds
    assert {r.train_fraction for r, _ in cells} == {0.1, 0.25, 0.5, 1.0}

    args = parser.parse_args(["sweep", "--kind", "unroll", "--seeds", "0"])
    cells = _sweep_cells(args)
    assert [r.model.unroll for r, _ in cells] == [6, 8, 10, 12, 14, 16]


def test_sweep_runs_each_repeated_cell_once(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert run("sweep", "--kind", "a", "--grid", "1,1", "--models", "lpd",
               "--momenta", "none", "--seeds", "0,0", *SWEEP_FAST,
               "--out", out) == 0
    assert "1 ran, 3 skipped" in capsys.readouterr().out
    assert len(read_rows(os.path.join(out, "results.csv"))) == 1


@pytest.mark.parametrize("argv, fields", [
    (["--kind", "a", "--grid", "1;2"], "a"),
    (["--kind", "rma-structure", "--grid", "1;2;3"], "lstm_layers;lstm_hidden"),
])
def test_sweep_grid_with_the_wrong_part_count_is_a_usage_error(
        tmp_path, capsys, argv, fields):
    out = str(tmp_path / "sweep")
    assert run("sweep", *argv, "--seeds", "0", *SWEEP_FAST, "--out", out) == 1
    assert f"(grid fields: {fields})" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind", ["unroll", "rma-structure"])
def test_sweep_models_and_momenta_filter_every_kind(kind):
    from dunets.cli import _sweep_cells, build_parser
    args = build_parser().parse_args(
        ["sweep", "--kind", kind, "--models", "lpgd", "--momenta", "rma",
         "--seeds", "0"])
    cells = _sweep_cells(args)
    assert cells and {(r.model.variant, r.model.momentum)
                      for r, _ in cells} == {("lpgd", "rma")}


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
    train_one = cli._train_one

    def exploding(run_config, *args, **kwargs):
        if run_config.model.momentum == "ma":
            raise RuntimeError("synthetic cell failure")
        return train_one(run_config, *args, **kwargs)

    monkeypatch.setattr(cli, "_train_one", exploding)
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


def test_sweep_reports_a_non_finite_cell_as_failed(tmp_path, monkeypatch, capsys):
    nan_test_split(monkeypatch)
    out = str(tmp_path / "sweep")
    assert run("sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
               "--momenta", "none", "--seeds", "0", *SWEEP_FAST,
               "--out", out) == 2
    captured = capsys.readouterr()
    assert "0 ran, 0 skipped, 1 failed" in captured.out
    assert "non-finite test mse" in captured.err
    assert not os.path.exists(os.path.join(out, "results.csv"))


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


def train_run_config(*argv):
    """The RunConfig that ``dunets train`` builds from these flags."""
    from dunets.cli import _run_config, build_parser
    args = build_parser().parse_args(["train", *argv])
    return _run_config(args, args.model, args.momentum, args.seed, args.T,
                       args.train_fraction)


def test_train_fingerprint_golden(data_dir):
    from dunets.cli import fingerprint
    from dunets.volterra import load_dataset
    dataset = load_dataset(data_dir)
    argv = ["--model", "lpd", "--momentum", "rma", *FAST, "--data", data_dir]
    prints = []
    for extra in ([], ["--train-fraction", "0.5"]):
        prints.append(fingerprint(
            train_run_config(*argv, *extra).columns(dataset)))
    assert prints == ["60fc351c25c9205d", "9440601a35090703"]


def test_train_fraction_run_golden(tmp_path, data_dir):
    # the bytes a run on half the train split writes, not only its
    # fingerprint; pinned under the single-threaded BLAS the suite runs
    out, results = str(tmp_path / "runs"), tmp_path / "results.csv"
    assert run("train", "--model", "lpd", "--momentum", "rma", *FAST,
               "--train-fraction", "0.5", "--data", data_dir, "--out", out,
               "--results", str(results)) == 0
    (fp,) = os.listdir(out)
    assert fp == "9440601a35090703"
    run_dir = tmp_path / "runs" / fp
    digests = [hashlib.sha256(blob).hexdigest()[:16] for blob in (
        (run_dir / "history.csv").read_bytes(),
        (run_dir / "checkpoint.bin").read_bytes(),
        results.read_bytes().splitlines()[1])]
    assert digests == ["1e5bd334b6e652f9", "864525f2fd10af3b", "2815a24a747c2471"]


def test_train_defaults_are_the_config_classes_defaults():
    from dunets.cli import RunConfig
    from dunets.training import TrainConfig
    from dunets.unrolling import ModelConfig
    assert train_run_config("--model", "lpd", "--data", "x") == RunConfig(
        ModelConfig("lpd", "none"), TrainConfig())


def test_run_config_is_frozen_all_the_way_down():
    from dataclasses import FrozenInstanceError
    run_config = train_run_config("--model", "lpd", "--data", "x")
    with pytest.raises(FrozenInstanceError):
        run_config.train.epochs = 1
    with pytest.raises(FrozenInstanceError):
        run_config.model.unroll = 1
    with pytest.raises(FrozenInstanceError):
        run_config.train_fraction = 0.5


@pytest.mark.parametrize("sweep_argv, train_argv", [
    (["--kind", "a", "--grid", "1", "--models", "lpgd", "--momenta", "ma"],
     ["--model", "lpgd", "--momentum", "ma"]),
    (["--kind", "unroll", "--grid", "3", "--momenta", "none"],
     ["--model", "lpd", "--momentum", "none", "--T", "3"]),
    (["--kind", "datasize", "--grid", "50", "--models", "lpd",
      "--momenta", "rma"],
     ["--model", "lpd", "--momentum", "rma", "--train-fraction", "0.5"]),
    (["--kind", "rma-structure", "--grid", "2;7"],
     ["--model", "lpd", "--momentum", "rma", "--L", "2", "--n", "7"]),
], ids=["a", "unroll", "datasize", "rma-structure"])
def test_sweep_cell_is_the_train_run_with_equal_settings(
        data_dir, sweep_argv, train_argv):
    from dunets.cli import _sweep_cells, build_parser, fingerprint
    from dunets.volterra import load_dataset
    run_flags = ["--epochs", "3", "--batch-size", "4", "--lr", "0.01",
                 "--width", "6", "--gamma", "0.8", "--eta", "0.01"]
    args = build_parser().parse_args(
        ["sweep", *sweep_argv, "--seeds", "2", *run_flags])
    ((cell, _),) = _sweep_cells(args)
    run_config = train_run_config(*train_argv, "--seed", "2", *run_flags,
                                  "--data", data_dir)
    assert cell == run_config
    dataset = load_dataset(data_dir)
    assert fingerprint(cell.columns(dataset)) == \
        fingerprint(run_config.columns(dataset))


CELL_RUN_FLAGS = ["--seeds", "2", "--epochs", "3", "--batch-size", "4",
                  "--lr", "0.01", "--width", "6", "--gamma", "0.8",
                  "--eta", "0.01"]


@pytest.mark.parametrize("argv, digest", [
    (["--kind", "a", "--seeds", "0,1"],
     "f6f73163d46e7040f9a49082f8a61e799d2c305c7c7ffce0821dd52ca61cd351"),
    (["--kind", "datasize", "--seeds", "0,1"],
     "8fa2363e2ed6429d72a59e0a14ec732d5c454dedf852ee2a4991aa3eb008acc4"),
    (["--kind", "rma-structure", "--seeds", "0,1"],
     "ae9c4520f3f17ef53e8ec27bc7d4821e944c04ace6b71dfe9c38f013a3fd7007"),
    (["--kind", "unroll", "--seeds", "0,1"],
     "63fbb3055254661e7abf694f0209051324a7be8736737b810708a060ed49d652"),
    (["--kind", "a", "--grid", "1", "--models", "lpgd", "--momenta", "ma",
      *CELL_RUN_FLAGS],
     "bcb4d940a28734319c93e5d05034403e1dff8d6ddb988d9385395d6c4a044036"),
    (["--kind", "unroll", "--grid", "3", "--momenta", "none",
      *CELL_RUN_FLAGS],
     "d3815306355d06be560c05c2013529b93eef7ebfa37936d3f0022b58b33cb1ed"),
    (["--kind", "datasize", "--grid", "50", "--models", "lpd",
      "--momenta", "rma", *CELL_RUN_FLAGS],
     "e66e10330e8dad0a6d7aac441b5c427519b19acf28e2df5edbfc7c336164d5aa"),
    (["--kind", "rma-structure", "--grid", "2;7", *CELL_RUN_FLAGS],
     "691f0bf3fa8de939bffc77acf96700eb1f7488193c9b7715a7165cc38aa34be0"),
], ids=["a", "datasize", "rma-structure", "unroll",
        "a-cell", "unroll-cell", "datasize-cell", "rma-structure-cell"])
def test_sweep_cells_golden(argv, digest):
    # the ordered cells, each a RunConfig and its gen_dataset kwargs
    from dunets.cli import _sweep_cells, build_parser
    h = hashlib.sha256()
    for run_config, gen_kwargs in _sweep_cells(
            build_parser().parse_args(["sweep", *argv])):
        h.update(f"{run_config!r} {gen_kwargs!r}\n".encode("utf-8"))
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# report

def seed_results_csv(path):
    from dunets.cli import _add_results
    base = {"variant": "lpd", "momentum": "rma", "T": 10, "L": 1, "n": 50,
            "a": 1.0, "data_size": 100, "epochs": 2, "batch_size": 8,
            "lr0": 0.001, "width": 4, "split": "test", "mse_std": 0.0}
    for seed, value in ((0, 1.0), (1, 2.0), (2, 3.0)):
        row = dict(base)
        row.update({"fingerprint": f"f{seed}", "seed": seed, "mse_mean": value})
        _add_results(path, [row])


def test_interrupted_results_sort_keeps_every_row(tmp_path, torn_writes):
    # a sweep writes its results once, sorted; seeded rows sort after its own
    out = tmp_path / "sweep"
    out.mkdir()
    path = str(out / "results.csv")
    seed_results_csv(path)
    with open(path, "rb") as fh:
        before = fh.read()
    argv = ["sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
            "--momenta", "none", "--seeds", "0", *SWEEP_FAST, "--out", str(out)]
    torn_writes.add("results.csv")
    with pytest.raises(OSError, match="torn"):
        run(*argv)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert sorted(os.listdir(out)) == ["datasets", "results.csv", "runs"]
    torn_writes.clear()
    assert run(*argv) == 0  # reuses the recorded run
    (new,) = os.listdir(out / "runs")
    assert [r["fingerprint"] for r in read_rows(path)] == sorted(
        [new, "f0", "f1", "f2"])
    with open(path, "rb") as fh:
        assert set(before.splitlines()) <= set(fh.read().splitlines())


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
    from dunets.cli import RESULT_COLUMNS, _add_results
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
            _add_results(results, [row])
    out = str(tmp_path / "plot.svg")
    assert run("report", "--results", results, "--format", "svg",
               "--x", "a", "--out", out) == 0
    svg = open(out).read()
    assert svg.count("<polyline") == 3
    assert "test MSE" in svg


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_interrupted_report_write_keeps_old_report(tmp_path, torn_writes, fmt):
    results = str(tmp_path / "results.csv")
    seed_results_csv(results)
    out = tmp_path / f"report.{fmt}"
    argv = ["report", "--results", results, "--format", fmt, "--out", str(out)]
    assert run(*argv) == 0
    before = out.read_bytes()
    torn_writes.add(out.name)
    with pytest.raises(OSError, match="torn"):
        run(*argv)
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == sorted(["results.csv", out.name])


def test_report_svg_of_a_missing_column_fails(tmp_path, capsys):
    results = str(tmp_path / "results.csv")
    seed_results_csv(results)
    out = str(tmp_path / "plot.svg")
    assert run("report", "--results", results, "--format", "svg",
               "--x", "nope", "--out", out) == 2
    err = capsys.readouterr().err
    assert "'nope'" in err and "data_size" in err
    assert not os.path.exists(out)


def test_report_empty_results_fails(tmp_path):
    results = str(tmp_path / "results.csv")
    with open(results, "w") as fh:
        fh.write(",".join(["fingerprint", "mse_mean"]) + "\n")
    assert run("report", "--results", results, "--out",
               str(tmp_path / "agg.csv")) == 2


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv", [
    ["train", "--model", "lpd", *FAST, "--seed", "-1"],
    ["sweep", "--kind", "a", "--grid", "1", "--seeds", "-1", *SWEEP_FAST],
    ["sweep", "--kind", "a", "--grid", "1", "--seeds", "0",
     "--data-seed", "-1", *SWEEP_FAST],
    ["gen-data", "--a", "1", *TINY, "--seed", "-1"],
], ids=["train", "sweep", "sweep-data-seed", "gen-data"])
def test_a_negative_seed_is_refused_before_anything_is_written(
        tmp_path, data_dir, capsys, argv):
    out = str(tmp_path / "out")
    assert run(*argv, "--out", out,
               *(["--data", data_dir] if argv[0] == "train" else [])) == 2
    assert "seed" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["gen-data", "--a", "nan", *TINY],
    ["gen-data", "--a", "inf", *TINY],
    ["sweep", "--kind", "a", "--grid", "nan", "--seeds", "0", *SWEEP_FAST],
], ids=["gen-data-nan", "gen-data-inf", "sweep-nan"])
def test_a_non_finite_operator_is_refused_before_anything_is_written(
        tmp_path, capsys, argv):
    out = str(tmp_path / "out")
    assert run(*argv, "--out", out) == 2
    assert "nonlinearity coefficient" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_a_rerun_replaces_its_results_row_in_place(tmp_path, data_dir):
    out, results = str(tmp_path / "runs"), str(tmp_path / "results.csv")
    argv = ["train", "--model", "lpgd", *FAST, "--data", data_dir,
            "--out", out, "--results", results]
    for extra in ([], ["--seed", "1"], ["--force"], ["--seed", "1", "--force"]):
        assert run(*argv, *extra) == 0
    rows = read_rows(results)
    assert [r["seed"] for r in rows] == ["0", "1"]
    ckpt = os.path.join(out, rows[0]["fingerprint"], "checkpoint.bin")
    for split in ("val", "val", "test", "val"):
        assert run("eval", "--checkpoint", ckpt, "--data", data_dir,
                   "--split", split, "--results", results) == 0
    rows = read_rows(results)
    assert [(r["seed"], r["split"]) for r in rows] == [
        ("0", "test"), ("1", "test"), ("0", "val"), ("0", "test")]
    assert len({r["fingerprint"] for r in rows}) == 4
    table = str(tmp_path / "table.csv")
    assert run("report", "--results", results, "--out", table) == 0
    assert {r["n_runs"] for r in read_rows(table) if r["split"] == "val"} == {"1"}


def test_usage_error_exit_code():
    assert run("train", "--model", "nope", "--data", "x") == 1
    assert run("no-such-command") == 1


def test_missing_dataset_is_run_failure(tmp_path):
    assert run("train", "--model", "lpgd", "--data",
               str(tmp_path / "missing"), "--out", str(tmp_path / "o")) == 2
