"""Acceptance gate: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The full-protocol reference run is hours long and therefore
gated behind DUNETS_EXTENDED=1; everything else runs in CI.
"""

import os
import time

import numpy as np
import pytest

from dunets.autodiff import (Tape, Tensor, add, backward, concat_channels,
                             conv1d, matvec, mul, neg, prelu, reshape, scale,
                             sigmoid, slice_channels, sub, sum_all, tanh)
from dunets.cli import main as cli_main
from dunets.gradcheck import check_op, rel_error
from dunets.layers import LstmCell, LstmStack
from dunets.training import TrainConfig, evaluate, train
from dunets.unrolling import (MOMENTA, VARIANTS, MomentumMA, UnrollModel,
                              load_model, save_model)
from dunets.volterra import (data_grad, forward, gen_dataset, load_dataset,
                             make_operator, save_dataset, vjp)

GRAD_TOL = 1e-5
E2E_TOL = 1e-4
ADJOINT_TOL = 1e-10
MA_TOL = 1e-12


def _report(name):
    print(f"\nACCEPTANCE PASS: {name}")


def _mini_op():
    return make_operator(1.0, seed=7, n=11, k=5, stride=3)


# ---------------------------------------------------------------------------
# criterion: gradient checks on every differentiable operation + a composed
# T=3 primal-dual recurrent miniature (ops <= 1e-5, end-to-end <= 1e-4,
# central differences h=1e-6, >= 100 random cases per op, under 2 minutes)

def _op_cases(rng):
    def weighted(build):
        # dot the output against fixed weights so every entry matters
        def loss(*tensors):
            out = build(*tensors)
            w = Tensor(np.random.default_rng(0).normal(size=out.data.shape))
            return sum_all(mul(out, w))
        return loss

    yield "add", weighted(lambda a, b: add(a, b)), \
        lambda: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
    yield "subtract", weighted(lambda a, b: sub(a, b)), \
        lambda: [rng.normal(size=(5,)), rng.normal(size=(5,))]
    yield "multiply", weighted(lambda a, b: mul(a, b)), \
        lambda: [rng.normal(size=(4,)), rng.normal(size=(4,))]
    yield "scale", weighted(lambda a: scale(a, 1.7)), \
        lambda: [rng.normal(size=(6,))]
    yield "negate", weighted(lambda a: neg(a)), \
        lambda: [rng.normal(size=(6,))]
    yield "broadcast-add", weighted(lambda b, x: add(x, b)), \
        lambda: [rng.normal(size=(4,)), rng.normal(size=(3, 4))]
    yield "sum", (lambda a: sum_all(mul(a, a))), \
        lambda: [rng.normal(size=(3, 3))]
    yield "reshape", weighted(lambda a: reshape(a, (2, 6))), \
        lambda: [rng.normal(size=(12,))]
    yield "matvec", weighted(lambda w, x: matvec(w, x)), \
        lambda: [rng.normal(size=(3, 5)), rng.normal(size=(5,))]
    yield "matvec-batched", weighted(lambda w, x: matvec(w, x)), \
        lambda: [rng.normal(size=(3, 5)), rng.normal(size=(4, 5))]
    yield "conv1d", weighted(lambda x, k, b: conv1d(x, k, b)), \
        lambda: [rng.normal(size=(2, 5)), rng.normal(size=(2, 2, 3)),
                 rng.normal(size=(2,))]
    yield "tanh", weighted(lambda a: tanh(a)), \
        lambda: [rng.normal(size=(7,))]
    yield "sigmoid", weighted(lambda a: sigmoid(a)), \
        lambda: [rng.normal(size=(7,))]
    yield "prelu", weighted(lambda x, s: prelu(x, s)), \
        lambda: [rng.normal(size=(2, 5)), rng.uniform(0.05, 0.6, size=(2,))]
    yield "concat", weighted(lambda a, b: concat_channels([a, b])), \
        lambda: [rng.normal(size=(1, 4)), rng.normal(size=(2, 4))]
    yield "slice", weighted(lambda a: slice_channels(a, 1, 3)), \
        lambda: [rng.normal(size=(4, 5))]

    op = _mini_op()
    y_obs = rng.normal(size=(op.m,))
    yield "volterra-forward", weighted(lambda x: forward(op, x)), \
        lambda: [rng.normal(size=(op.n,))]
    yield "volterra-vjp", weighted(lambda x, u: vjp(op, x, u)), \
        lambda: [rng.normal(size=(op.n,)), rng.normal(size=(op.m,))]
    yield "data-grad", weighted(lambda x: data_grad(op, x, y_obs)), \
        lambda: [rng.normal(size=(op.n,))]

    cell = LstmCell.create(rng, input_size=3, hidden_size=4)

    def cell_loss(z, h, c, w_hc, w_gf):
        cell.w_hc = w_hc
        cell.w_gf = w_gf
        h2, c2 = cell.step(z, h, c)
        return add(sum_all(mul(h2, h2)), sum_all(c2))

    yield "lstm-cell", cell_loss, \
        lambda: [rng.normal(size=(3,)), rng.normal(size=(4,)),
                 rng.normal(size=(4,)), rng.normal(size=(4, 4)),
                 rng.normal(size=(4, 3))]

    mom = MomentumMA(gamma=0.9, eta=1e-3)

    def ma_loss(v, g):
        out, _ = mom.step(v, g)
        return sum_all(mul(out, out))

    yield "ma-step", ma_loss, \
        lambda: [rng.normal(size=(5,)), rng.normal(size=(5,))]


def test_gradient_check_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for name, loss, sample in _op_cases(rng):
        worst = 0.0
        for _ in range(100):
            worst = max(worst, check_op(loss, sample()))
        assert worst <= GRAD_TOL, f"{name}: relative error {worst:.3e}"

    # composed miniature: T=3 primal-dual recurrent model, every parameter
    op = _mini_op()
    model = UnrollModel.build("lpd", "rma", op, unroll=3, width=4,
                              n_primal=2, n_dual=2, lstm_hidden=5, seed=5)
    bump = np.random.default_rng(1)
    for _, t in model.named_params():
        t.data = t.data + 0.05 * bump.normal(size=t.data.shape)
    y = bump.normal(size=op.m)
    target = bump.normal(size=op.n)
    params = model.param_list()
    names = [n for n, _ in model.named_params()]

    with Tape() as tape:
        tape.watch(*params)
        diff = sub(model.reconstruct(y), Tensor(target))
        grads = backward(sum_all(mul(diff, diff)), params)

    def objective():
        xh = model.reconstruct(y).data
        return float(((xh - target) ** 2).sum())

    h = 1e-6
    for name, p in zip(names, params):
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = objective()
            flat[j] = orig - h
            fm = objective()
            flat[j] = orig
            fd[j] = (fp - fm) / (2 * h)
        err = rel_error(grads[p].reshape(-1), fd)
        assert err <= E2E_TOL, f"{name}: end-to-end relative error {err:.3e}"

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"gradient-check suite took {elapsed:.0f}s"
    _report(f"gradient checks (every op <= {GRAD_TOL:g}, composed T=3 "
            f"miniature <= {E2E_TOL:g}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion: adjoint inner-product identities to 1e-10 over 1000 cases each

def test_adjoint_identities():
    rng = np.random.default_rng(7)
    worst_conv = 0.0
    for _ in range(1000):
        x = rng.normal(size=(2, 6))
        kernel = rng.normal(size=(3, 2, 3))
        u = rng.normal(size=(3, 6))
        zero_bias = Tensor(np.zeros(3))
        xt, kt = Tensor(x), Tensor(kernel)
        with Tape() as tape:
            tape.watch(xt)
            out = conv1d(xt, kt, zero_bias)
            lhs = float((out.data * u).sum())
            g = backward(sum_all(mul(out, Tensor(u))), [xt])
        rhs = float((x * g[xt]).sum())
        worst_conv = max(worst_conv, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst_conv <= ADJOINT_TOL

    op = _mini_op()
    worst_vjp = 0.0
    for _ in range(1000):
        x = rng.normal(size=op.n)
        u = rng.normal(size=op.m)
        delta = rng.normal(size=op.n)
        # independent directional derivative: explicit per-window algebra
        jvp = np.zeros(op.m)
        for i in range(op.m):
            sl = slice(i * op.stride, i * op.stride + op.k)
            w, dw = x[sl], delta[sl]
            jvp[i] = op.a * (dw @ op.w2 @ w + w @ op.w2 @ dw) + op.w1 @ dw
        lhs = float(jvp @ u)
        rhs = float(delta @ vjp(op, x, u))
        worst_vjp = max(worst_vjp, abs(lhs - rhs) / max(abs(lhs), 1.0))
    assert worst_vjp <= ADJOINT_TOL
    _report(f"adjoint identities (conv {worst_conv:.2e}, "
            f"measurement vjp {worst_vjp:.2e}, 1000 cases each)")


# ---------------------------------------------------------------------------
# criterion: explicit momentum equals its weighted-sum expansion to 1e-12

def test_momentum_velocity_closed_form():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(30):
        gamma = float(rng.uniform(0.0, 0.99))
        eta = float(rng.uniform(1e-4, 0.1))
        steps = int(rng.integers(1, 51))
        gs = [rng.normal(size=(8,)) for _ in range(steps)]
        mom = MomentumMA(gamma=gamma, eta=eta)
        state = None
        for g in gs:
            v, state = mom.step(state, Tensor(g))
        expansion = np.zeros(8)
        for i, g in enumerate(gs):
            expansion -= gamma ** (steps - 1 - i) * eta * g
        worst = max(worst, float(np.max(np.abs(v.data - expansion))))
    assert worst <= MA_TOL
    _report(f"momentum closed form (t <= 50, max deviation {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion: zero-weight LSTM passes only its output bias through, exactly

def test_lstm_zero_weights_bias_passthrough():
    rng = np.random.default_rng(13)
    for layers in (1, 2, 3):
        stack = LstmStack.create(rng, input_size=6, hidden_size=4, layers=layers)
        for _, t in stack.named_params("s"):
            t.data = np.zeros_like(t.data)
        beta = rng.normal(size=6)
        stack.b_g.data = beta.copy()
        for _ in range(5):
            g = rng.normal(size=6) * rng.uniform(0, 100)
            state = [(Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4)))
                     for _ in range(layers)]
            v, _ = stack(Tensor(g), state)
            assert np.array_equal(v.data, beta)
    _report("zero-weight recurrent module returns its output bias exactly")


# ---------------------------------------------------------------------------
# criterion: every variant x momentum mode reproduces x0 at initialization

def test_residual_identity_at_initialization():
    op = make_operator(1.0, seed=0)
    rng = np.random.default_rng(17)
    y = rng.normal(size=op.m)
    for variant in VARIANTS:
        for momentum in MOMENTA:
            model = UnrollModel.build(variant, momentum, op, seed=3)
            x = model.reconstruct(y)
            assert x.data.shape == (op.n,)
            assert not x.data.any(), f"{variant}-{momentum} moved off x0"
    _report("residual identity at initialization (all 9 variants, exact)")


# ---------------------------------------------------------------------------
# criterion: parameter parity between momentum and plain variants

def test_parameter_parity():
    op = make_operator(1.0, seed=0)
    lpd = UnrollModel.build("lpd", "none", op, unroll=22).count_params()
    lpd_rma = UnrollModel.build("lpd", "rma", op, unroll=10).count_params()
    gap_lpd = abs(lpd_rma - lpd) / lpd
    assert gap_lpd <= 0.15

    lpgd = UnrollModel.build("lpgd", "none", op, unroll=43).count_params()
    lpgd_rma = UnrollModel.build("lpgd", "rma", op, unroll=20).count_params()
    gap_lpgd = abs(lpgd_rma - lpgd) / lpgd
    assert gap_lpgd <= 0.15
    _report(f"parameter parity (primal-dual {gap_lpd:.1%}, "
            f"proximal-gradient {gap_lpgd:.1%}, both <= 15%)")


# ---------------------------------------------------------------------------
# criterion: identical train invocations produce bit-identical artifacts

def test_cli_train_determinism(tmp_path):
    data = str(tmp_path / "data")
    assert cli_main(["gen-data", "--a", "1", "--counts", "64,16,16",
                     "--seed", "0", "--out", data]) == 0
    argv = ["train", "--model", "lpd", "--momentum", "rma", "--T", "2",
            "--n", "8", "--width", "8", "--epochs", "2", "--batch-size", "16",
            "--data", data, "--seed", "0"]
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert cli_main(argv + ["--out", out]) == 0
        (run_dir,) = os.listdir(out)
        outs.append(os.path.join(out, run_dir))
    for name in ("checkpoint.bin", "history.csv"):
        with open(os.path.join(outs[0], name), "rb") as fa, \
                open(os.path.join(outs[1], name), "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs between runs"
    _report("train determinism (bit-identical checkpoint and history)")


# ---------------------------------------------------------------------------
# criterion: on-disk round-trips are bit-exact and sweeps resume identically

def test_file_roundtrips_and_sweep_resume(tmp_path):
    # dataset round-trip
    ds = gen_dataset(2.0, counts=(6, 3, 3), seed=4, n=11, k=5, stride=3)
    d1, d2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    save_dataset(ds, d1)
    reloaded = load_dataset(d1)
    save_dataset(reloaded, d2)
    for name in sorted(os.listdir(d1)):
        with open(os.path.join(d1, name), "rb") as fa, \
                open(os.path.join(d2, name), "rb") as fb:
            assert fa.read() == fb.read(), f"dataset file {name}"

    # checkpoint round-trip
    op = ds.operator
    model = UnrollModel.build("lpd", "rma", op, unroll=2, width=4,
                              n_primal=2, n_dual=2, lstm_hidden=5, seed=1)
    c1, c2 = str(tmp_path / "m1.bin"), str(tmp_path / "m2.bin")
    save_model(model, c1)
    save_model(load_model(c1), c2)
    with open(c1, "rb") as fa, open(c2, "rb") as fb:
        assert fa.read() == fb.read()

    # sweep resume: partial run + resumed run == uninterrupted run
    fast = ["--counts", "24,8,8", "--epochs", "1", "--batch-size", "8",
            "--n", "5", "--width", "4", "--seeds", "0"]
    resumed, fresh = str(tmp_path / "resumed"), str(tmp_path / "fresh")
    assert cli_main(["sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
                     "--momenta", "none", *fast, "--out", resumed]) == 0
    assert cli_main(["sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
                     "--momenta", "none,ma", *fast, "--out", resumed]) == 0
    assert cli_main(["sweep", "--kind", "a", "--grid", "1", "--models", "lpd",
                     "--momenta", "none,ma", *fast, "--out", fresh]) == 0
    with open(os.path.join(resumed, "results.csv")) as fa, \
            open(os.path.join(fresh, "results.csv")) as fb:
        assert fa.read() == fb.read()
    _report("round-trips bit-exact; interrupted sweep resumes to identical CSV")


# ---------------------------------------------------------------------------
# criterion: desk-scale trend -- the recurrent module helps on the nonlinear
# problem (2 of 3 seeds and the mean) and is a wash on the linear one

def _trained_mse(variant, momentum, unroll, dataset, seed):
    model = UnrollModel.build(variant, momentum, dataset.operator,
                              unroll=unroll, seed=seed)
    train(model, dataset, TrainConfig(epochs=5, batch_size=32, seed=seed))
    x_test, y_test = dataset.splits["test"]
    return evaluate(model, x_test, y_test).mean


def test_rma_advantage_scales_with_nonlinearity():
    started = time.perf_counter()
    seeds = (0, 1, 2)

    ds_nl = gen_dataset(2.0, counts=(2000, 500, 500), seed=0)
    lpd_nl = np.array([_trained_mse("lpd", "none", 11, ds_nl, s) for s in seeds])
    rma_nl = np.array([_trained_mse("lpd", "rma", 5, ds_nl, s) for s in seeds])

    wins = int((rma_nl < lpd_nl).sum())
    assert wins >= 2, f"recurrent momentum won only {wins}/3 seeds: " \
                      f"{rma_nl} vs {lpd_nl}"
    assert rma_nl.mean() < lpd_nl.mean()

    ds_lin = gen_dataset(0.0, counts=(2000, 500, 500), seed=0)
    lpd_lin = np.array([_trained_mse("lpd", "none", 11, ds_lin, s) for s in seeds])
    rma_lin = np.array([_trained_mse("lpd", "rma", 5, ds_lin, s) for s in seeds])
    pooled = np.sqrt((lpd_lin.std(ddof=1) ** 2 + rma_lin.std(ddof=1) ** 2) / 2)
    gap = abs(rma_lin.mean() - lpd_lin.mean())
    assert gap < pooled, f"linear case shows a significant gap: {gap:.3e} " \
                         f"vs pooled std {pooled:.3e}"

    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    _report(
        "nonlinear trend: recurrent momentum "
        f"{rma_nl.mean():.4e} vs plain {lpd_nl.mean():.4e} "
        f"({wins}/3 seeds, {(1 - rma_nl.mean() / lpd_nl.mean()):.1%} better); "
        f"linear gap {gap:.2e} < pooled std {pooled:.2e}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion (extended, not CI): full-protocol reference run

EXTENDED = os.environ.get("DUNETS_EXTENDED") == "1"


@pytest.mark.skipif(not EXTENDED, reason="hours-long reference run; set "
                                         "DUNETS_EXTENDED=1 to enable")
def test_full_protocol_reference_run():
    seeds = tuple(int(s) for s in
                  os.environ.get("DUNETS_EXTENDED_SEEDS", "0,1,2").split(","))
    ds = gen_dataset(1.0, counts=(10000, 1000, 1000), seed=0)

    def mean_mse(momentum, unroll):
        values = []
        for seed in seeds:
            model = UnrollModel.build("lpd", momentum, ds.operator,
                                      unroll=unroll, seed=seed)
            train(model, ds, TrainConfig(epochs=20, batch_size=32, seed=seed))
            x_test, y_test = ds.splits["test"]
            values.append(evaluate(model, x_test, y_test).mean)
        return float(np.mean(values))

    plain = mean_mse("none", 22)
    ma = mean_mse("ma", 22)
    rma = mean_mse("rma", 10)
    improvement = (plain - rma) / plain
    print(f"\nfull protocol: plain {plain:.4e}, explicit momentum {ma:.4e}, "
          f"recurrent momentum {rma:.4e} "
          f"(reference magnitudes 3.65e-02 / 3.71e-02 / 3.35e-02)")
    assert rma < plain and rma < ma, "recurrent momentum must rank best"
    assert improvement >= 0.04, f"improvement {improvement:.1%} below 4%"
    _report(f"full-protocol reference run (improvement {improvement:.1%})")
