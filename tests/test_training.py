import os
import subprocess
import sys

import numpy as np
import pytest

import dunets
from dunets import layers, training
from dunets.autodiff import Tensor
from dunets.training import (TrainConfig, TrainingDiverged, evaluate,
                             mse_loss, subsample_train, train)
from dunets.unrolling import UnrollModel
from dunets.volterra import gen_dataset, make_operator


@pytest.fixture
def tiny_dataset():
    return gen_dataset(0.0, counts=(48, 12, 12), seed=0, n=11, k=5, stride=3)


def tiny_model(dataset, variant="lpgd", momentum="none", unroll=2, seed=0):
    return UnrollModel.build(variant, momentum, dataset.operator, unroll=unroll,
                             width=4, n_primal=2, n_dual=2, lstm_hidden=5,
                             seed=seed)


# ---------------------------------------------------------------------------
# loss

def test_mse_zero_for_perfect_reconstruction(rng):
    x = rng.normal(size=(3, 7))
    assert float(mse_loss(Tensor(x), x).data) == 0.0


def test_mse_of_zero_prediction_on_ones():
    xhat = Tensor(np.zeros((2, 53)))
    target = np.ones((2, 53))
    assert float(mse_loss(xhat, target).data) == 1.0


def test_mse_matches_scalar_loop(rng):
    xhat = rng.normal(size=(4, 6))
    target = rng.normal(size=(4, 6))
    ref = 0.0
    for i in range(4):
        row = 0.0
        for j in range(6):
            row += (xhat[i, j] - target[i, j]) ** 2
        ref += row / 6
    ref /= 4
    assert abs(float(mse_loss(Tensor(xhat), target).data) - ref) <= 1e-14


def test_mse_shape_mismatch():
    with pytest.raises(Exception, match="shape"):
        mse_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_constant_zero_model_on_known_targets(tiny_dataset):
    model = tiny_model(tiny_dataset)  # fresh model reconstructs exactly zero
    x, y = tiny_dataset.splits["test"]
    stats = evaluate(model, x, y)
    expected = (x ** 2).mean(axis=1)
    assert np.allclose(stats.per_sample, expected, atol=1e-15)
    assert abs(stats.mean - expected.mean()) <= 1e-15


def test_evaluate_is_order_invariant(tiny_dataset, rng):
    model = tiny_model(tiny_dataset)
    x, y = tiny_dataset.splits["test"]
    perm = rng.permutation(len(x))
    a = evaluate(model, x, y)
    b = evaluate(model, x[perm], y[perm])
    assert abs(a.mean - b.mean) <= 1e-15


def test_evaluate_rejects_empty_split(tiny_dataset):
    model = tiny_model(tiny_dataset)
    with pytest.raises(ValueError):
        evaluate(model, np.zeros((0, 11)), np.zeros((0, 3)))


@pytest.mark.parametrize("n_x, n_y", [(10, 12), (12, 10)])
def test_evaluate_rejects_signals_and_observations_of_different_counts(
        tiny_dataset, n_x, n_y):
    model = tiny_model(tiny_dataset)
    x, y = tiny_dataset.splits["train"]
    with pytest.raises(ValueError, match=f"{n_x} signals against {n_y} observations"):
        evaluate(model, x[:n_x], y[:n_y])


# ---------------------------------------------------------------------------
# training

def test_short_run_reduces_training_loss(tiny_dataset):
    model = tiny_model(tiny_dataset, unroll=3)
    x, y = tiny_dataset.splits["train"]
    before = evaluate(model, x, y).mean
    config = TrainConfig(epochs=4, batch_size=4, seed=0)
    history = train(model, tiny_dataset, config)
    after = evaluate(model, x, y).mean
    assert len(history.steps) == 4 * 12  # 48 samples, batches of 4
    assert after < before


def test_training_is_seed_deterministic(tiny_dataset):
    outs = []
    for _ in range(2):
        model = tiny_model(tiny_dataset, momentum="rma", unroll=2)
        history = train(model, tiny_dataset, TrainConfig(epochs=2, batch_size=8, seed=3))
        outs.append((history.steps, history.val_losses,
                     [p.data.copy() for p in model.param_list()]))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]
    for a, b in zip(outs[0][2], outs[1][2]):
        assert np.array_equal(a, b)


def test_returned_parameters_are_best_validation_epoch(tiny_dataset):
    model = tiny_model(tiny_dataset, unroll=2)
    history = train(model, tiny_dataset, TrainConfig(epochs=3, batch_size=8, seed=1))
    assert history.best_val == min(history.val_losses)
    assert history.val_losses[history.best_epoch] == history.best_val
    # the model really holds the best-epoch parameters
    x_val, y_val = tiny_dataset.splits["val"]
    assert abs(evaluate(model, x_val, y_val).mean - history.best_val) <= 1e-15
    assert history.best_val <= history.val_losses[-1]


def test_validation_runs_in_training_size_batches(tiny_dataset):
    model = tiny_model(tiny_dataset, unroll=2)
    sizes = []
    reconstruct = model.reconstruct

    def spying_reconstruct(y, *args, **kwargs):
        sizes.append(len(y))
        return reconstruct(y, *args, **kwargs)

    model.reconstruct = spying_reconstruct
    train(model, tiny_dataset, TrainConfig(epochs=1, batch_size=5, seed=0))
    # 48 training samples in batches of 5, then the 12 validation samples
    assert sizes == [5] * 9 + [3] + [5, 5, 2]


def test_operator_fingerprint_guard(tiny_dataset):
    other = make_operator(1.0, seed=99, n=11, k=5, stride=3)
    model = UnrollModel.build("lpgd", "none", other, unroll=2, width=4)
    with pytest.raises(ValueError, match="operator"):
        train(model, tiny_dataset, TrainConfig(epochs=1, batch_size=8))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_aborts_with_diagnostics(tiny_dataset):
    model = tiny_model(tiny_dataset, unroll=2)
    bad = model.param_list()[0]
    bad.data = bad.data + np.inf
    with pytest.raises(TrainingDiverged) as excinfo:
        train(model, tiny_dataset, TrainConfig(epochs=1, batch_size=8, seed=0))
    assert excinfo.value.step == 0
    assert excinfo.value.lr > 0


def test_nan_gradient_with_finite_loss_leaves_parameters_untouched(
        tiny_dataset, monkeypatch):
    original = training.backward

    def nan_backward(loss, params):
        grads = original(loss, params)
        grads[params[0]] = np.full_like(grads[params[0]], np.nan)
        return grads

    monkeypatch.setattr(training, "backward", nan_backward)
    model = tiny_model(tiny_dataset, unroll=2)
    before = [p.data.copy() for p in model.param_list()]
    with pytest.raises(TrainingDiverged) as excinfo:
        train(model, tiny_dataset, TrainConfig(epochs=1, batch_size=8, seed=0))
    assert excinfo.value.step == 0
    assert np.isnan(excinfo.value.grad_norm)
    for p, b in zip(model.param_list(), before):
        assert np.array_equal(p.data, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_validation_loss_raises_with_epoch(tiny_dataset, monkeypatch,
                                                     bad):
    original = training.evaluate
    calls = []

    def evaluate_second_epoch_bad(model, x, y, batch_size=256):
        calls.append(len(x))
        stats = original(model, x, y, batch_size=batch_size)
        return stats if len(calls) == 1 else training.EvalStats(
            mean=bad, std=bad, per_sample=np.full(len(x), bad))

    monkeypatch.setattr(training, "evaluate", evaluate_second_epoch_bad)
    model = tiny_model(tiny_dataset, unroll=2)
    with pytest.raises(TrainingDiverged,
                       match="validation loss after epoch 1") as excinfo:
        train(model, tiny_dataset, TrainConfig(epochs=3, batch_size=8, seed=0))
    assert excinfo.value.epoch == 1
    assert excinfo.value.step == 11  # 48 samples in batches of 8: 6 per epoch
    assert calls == [12, 12]


def test_gradient_norm_fed_to_adam_never_exceeds_clip(tiny_dataset, monkeypatch):
    seen = []
    original = layers.Adam.step

    def spying_step(self, grads, lr):
        seen.append(layers.global_norm(grads))
        return original(self, grads, lr)

    monkeypatch.setattr(layers.Adam, "step", spying_step)
    model = tiny_model(tiny_dataset, unroll=3)
    train(model, tiny_dataset, TrainConfig(epochs=2, batch_size=8, seed=0))
    assert seen
    assert max(seen) <= 1.0 + 1e-9


def test_trainer_applies_pure_adam_update(tiny_dataset):
    # one batch, one epoch: the parameter change must equal the Adam formula
    # exactly (no projection, clamping, or decay sneaking in)
    model = tiny_model(tiny_dataset, unroll=2)
    # give a parameter an extreme value a constraint would likely clamp
    probe = model.param_list()[0]
    probe.data = probe.data + 1e6

    before = [p.data.copy() for p in model.param_list()]
    x, y = tiny_dataset.splits["train"]
    one = type(tiny_dataset)(operator=tiny_dataset.operator,
                             splits={"train": (x[:8], y[:8]),
                                     "val": tiny_dataset.splits["val"],
                                     "test": tiny_dataset.splits["test"]},
                             seed=0, tv_scale=0.1, noise_sigma=0.0)
    config = TrainConfig(epochs=1, batch_size=8, seed=0)

    from dunets.autodiff import Tape, backward
    from dunets.training import _epoch_order, mse_loss as mk_loss
    params = model.param_list()
    order = _epoch_order(0, 0, 8)
    with Tape() as tape:
        tape.watch(*params)
        loss = mk_loss(model.reconstruct(y[:8][order]), x[:8][order])
        grads = backward(loss, params)
    glist, _ = layers.clip_global_norm([grads[p] for p in params], 1.0)
    expected = []
    for p0, g in zip(before, glist):
        m = 0.1 * g
        v = 0.01 * g * g
        mh = m / 0.1
        vh = v / 0.01
        expected.append(p0 - config.lr0 * mh / (np.sqrt(vh) + 1e-8))

    model2 = tiny_model(one, unroll=2)
    model2.param_list()[0].data = model2.param_list()[0].data + 1e6
    train(model2, one, config)
    for p, e in zip(model2.param_list(), expected):
        assert np.allclose(p.data, e, atol=1e-12)


def test_full_scale_unroll_trains_without_overflow():
    # deep unrolls square magnitudes through the quadratic measurement map;
    # the depth-tapered dual init keeps the initial state inside an O(100)
    # guardrail (unscaled it reaches ~5e3 at T=22) and training finite
    ds = gen_dataset(2.0, counts=(32, 8, 8), seed=0)
    model = UnrollModel.build("lpd", "rma", ds.operator, unroll=22, seed=0)
    _, trace = model.reconstruct(ds.splits["train"][1][:8], trace=True)
    assert max(float(np.abs(u).max()) for u in trace.u) < 200.0
    train(model, ds, TrainConfig(epochs=2, batch_size=16, seed=0))
    x, y = ds.splits["val"]
    assert np.isfinite(evaluate(model, x, y).mean)


def test_subsample_train_is_deterministic(tiny_dataset):
    a = subsample_train(tiny_dataset, 0.25, seed=4)
    b = subsample_train(tiny_dataset, 0.25, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert len(a[0]) == 12
    c = subsample_train(tiny_dataset, 0.25, seed=5)
    assert not np.array_equal(a[0], c[0])
    with pytest.raises(ValueError):
        subsample_train(tiny_dataset, 0.0, seed=0)


def test_history_csv_layout(tmp_path, tiny_dataset):
    model = tiny_model(tiny_dataset, unroll=2)
    history = train(model, tiny_dataset, TrainConfig(epochs=2, batch_size=8, seed=0))
    path = tmp_path / "history.csv"
    history.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,epoch,lr,train_loss,val_loss"
    assert len(lines) == 1 + 2 * 6
    # validation loss appears exactly once per epoch, on its final step
    filled = [line for line in lines[1:] if not line.endswith(",")]
    assert len(filled) == 2


def test_history_csv_writes_each_lr_as_a_plain_float(tmp_path, tiny_dataset):
    model = tiny_model(tiny_dataset, unroll=2)
    history = train(model, tiny_dataset, TrainConfig(epochs=1, batch_size=8, seed=0))
    path = tmp_path / "history.csv"
    history.to_csv(str(path))
    fields = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    assert fields and all(repr(float(f)) == f for f in fields)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr0=-1.0)


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed=-1"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("bad", [
    {"clip_norm": 0.0},   # every update would be silently zero
    {"clip_norm": -1.0},  # clipping would flip every gradient: Adam climbs
    {"beta1": -0.1}, {"beta1": 1.0}, {"beta2": -0.1}, {"beta2": 1.0},
    {"eps": 0.0}, {"eps": -1e-8},
    # NaN fails every comparison, so each check must be written to reject it
    {"lr0": np.nan}, {"lr0": np.inf}, {"clip_norm": np.nan},
    {"eps": np.nan}, {"eps": np.inf},
])
def test_train_config_rejects_bad_clip_and_adam_settings(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


# ---------------------------------------------------------------------------
# BLAS thread pinning

@pytest.mark.parametrize("caller_pins, warns", [(False, True), (True, False)])
def test_late_blas_pin_warns_unless_caller_pinned(caller_pins, warns):
    env = {k: v for k, v in os.environ.items() if k not in dunets.BLAS_VARS}
    if caller_pins:
        env.update({var: "1" for var in dunets.BLAS_VARS})
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(dunets.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-c", "import numpy, dunets"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert ("RuntimeWarning" in proc.stderr) == warns
