import hashlib
import inspect
import re
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from dunets import autodiff, volterra
from dunets.autodiff import Tape, Tensor, backward, scale, sub, sum_all
from dunets.gradcheck import fd_gradient, rel_error
from dunets.layers import Conv1dLayer, load_params
from dunets.unrolling import (MOMENTA, VARIANTS, ModelConfig, MomentumMA,
                              UnrollModel, default_unroll, fuse_direction,
                              load_model, save_model)
from dunets.volterra import make_operator


def mini_model(variant, momentum, tiny_op, unroll=2, seed=0, **kw):
    kw.setdefault("width", 4)
    kw.setdefault("n_primal", 2)
    kw.setdefault("n_dual", 2)
    kw.setdefault("lstm_hidden", 5)
    return UnrollModel.build(variant, momentum, tiny_op, unroll=unroll,
                             seed=seed, **kw)


class ScaledDirection:
    """Test double: pass the gradient through with a fixed scale."""

    def __init__(self, factor):
        self.factor = factor

    def step(self, state, g):
        return scale(g, self.factor), None

    def named_params(self, prefix):
        return ()


class ZeroDirection:
    """Test double: always emit a zero direction."""

    def step(self, state, g):
        return Tensor(np.zeros_like(g.data)), None

    def named_params(self, prefix):
        return ()


# ---------------------------------------------------------------------------
# explicit momentum

def test_ma_step_single_update():
    mom = MomentumMA(gamma=0.9, eta=1e-3)
    for state in (None, Tensor(np.zeros(4))):
        v, new_state = mom.step(state, Tensor(np.ones(4)))
        assert np.allclose(v.data, -1e-3 * np.ones(4), atol=0)
        assert new_state is v


def test_ma_decays_geometrically_without_gradients():
    mom = MomentumMA(gamma=0.9, eta=1e-3)
    v = Tensor(np.array([1.0, -2.0]))
    for t in range(1, 6):
        v, _ = mom.step(v, Tensor(np.zeros(2)))
        assert np.allclose(v.data, 0.9 ** t * np.array([1.0, -2.0]), rtol=1e-12)


def closed_form_velocity(gs, gamma, eta):
    """Direct expansion: v_t = -sum_i gamma^(t-1-i) eta g_i (v_0 = 0)."""
    t = len(gs)
    v = np.zeros_like(gs[0])
    for i, g in enumerate(gs):
        v = v - gamma ** (t - 1 - i) * eta * g
    return v


def test_ma_matches_closed_form_expansion(rng):
    for _ in range(10):
        gamma = rng.uniform(0.0, 0.99)
        eta = rng.uniform(1e-4, 1e-1)
        steps = rng.integers(1, 50)
        gs = [rng.normal(size=(6,)) for _ in range(steps)]
        mom = MomentumMA(gamma=gamma, eta=eta)
        state = None
        for g in gs:
            v, state = mom.step(state, Tensor(g))
        assert np.max(np.abs(v.data - closed_form_velocity(gs, gamma, eta))) <= 1e-12


# ---------------------------------------------------------------------------
# defaults and construction

def test_default_unroll_table():
    assert default_unroll("lpgd", "none") == 43
    assert default_unroll("lpgd", "ma") == 43
    assert default_unroll("lpgd", "rma") == 20
    assert default_unroll("lpgdsw", "rma") == 20
    assert default_unroll("lpd", "none") == 22
    assert default_unroll("lpd", "ma") == 22
    assert default_unroll("lpd", "rma") == 10


def test_build_validates_names(tiny_op):
    with pytest.raises(ValueError):
        UnrollModel.build("pgd", "none", tiny_op)
    with pytest.raises(ValueError):
        UnrollModel.build("lpd", "nesterov", tiny_op)
    with pytest.raises(ValueError):
        UnrollModel.build("lpd", "none", tiny_op, n_primal=1)


@pytest.mark.parametrize("field, value", [
    ("n_primal", 0), ("n_dual", 0), ("width", 0), ("kernel", 0), ("kernel", 4),
    ("lstm_layers", 0), ("lstm_hidden", -1)])
def test_config_rejects_non_positive_sizes_and_an_even_kernel(field, value):
    with pytest.raises(ValueError, match=f"{field}={value}"):
        ModelConfig("lpgd", "rma", **{field: value})


@pytest.mark.parametrize("field", ["gamma", "eta"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_a_non_finite_momentum_setting(field, value):
    with pytest.raises(ValueError, match=f"{field}={value}"):
        ModelConfig("lpd", "ma", **{field: value})


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed=-1"):
        ModelConfig("lpd", "rma", seed=-1)


def test_same_seed_builds_identical_models(tiny_op):
    a = mini_model("lpd", "rma", tiny_op, seed=3)
    b = mini_model("lpd", "rma", tiny_op, seed=3)
    for (na, ta), (nb, tb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


# ---------------------------------------------------------------------------
# residual identity and shapes

@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("momentum", MOMENTA)
def test_fresh_model_reconstructs_exact_zero(variant, momentum, tiny_op, rng):
    model = mini_model(variant, momentum, tiny_op, unroll=3, seed=11)
    y = rng.normal(size=tiny_op.m)
    x = model.reconstruct(y)
    assert x.data.shape == (tiny_op.n,)
    assert not x.data.any()


def test_unroll_zero_returns_initialization(tiny_op, rng):
    model = mini_model("lpgd", "none", tiny_op, unroll=0)
    assert not model.reconstruct(rng.normal(size=tiny_op.m)).data.any()


def test_zeroing_every_output_layer_still_pins_reconstruction(tiny_op, rng):
    # stronger premise than the default init: dual output layers zeroed too
    model = mini_model("lpd", "rma", tiny_op, unroll=3, seed=1)
    for net in model.dual_nets:
        net.convs[-1].kernel.data = np.zeros_like(net.convs[-1].kernel.data)
        net.convs[-1].bias.data = np.zeros_like(net.convs[-1].bias.data)
    assert not model.reconstruct(rng.normal(size=tiny_op.m)).data.any()


def test_primal_output_layers_start_zero_dual_stays_live(tiny_op):
    # zero primal outputs give the exact residual identity; a live dual
    # output layer feeds measurement information to the first update step,
    # without which every init-point gradient cancels exactly
    model = mini_model("lpd", "none", tiny_op, unroll=2, seed=0)
    for net in model.primal_nets:
        assert not net.convs[-1].kernel.data.any()
        assert not net.convs[-1].bias.data.any()
    assert any(net.convs[-1].kernel.data.any() for net in model.dual_nets)


def test_lpd_initial_gradients_are_not_degenerate(tiny_op, rng):
    model = mini_model("lpd", "none", tiny_op, unroll=2, seed=0)
    params = model.param_list()
    ys = rng.normal(size=(4, tiny_op.m))
    xs = rng.normal(size=(4, tiny_op.n))
    with Tape() as tape:
        tape.watch(*params)
        diff = sub(model.reconstruct(ys), Tensor(xs))
        grads = backward(sum_all(diff * diff), params)
    assert max(float(np.abs(grads[p]).max()) for p in params) > 1e-3


def test_lpd_state_shapes_with_default_widths(rng):
    op = make_operator(1.0, seed=0)
    model = UnrollModel.build("lpd", "rma", op, unroll=2, seed=0)
    _, trace = model.reconstruct(rng.normal(size=op.m), trace=True)
    assert len(trace.x) == 3
    assert len(trace.u) == 3
    for snap in trace.x:
        assert snap.shape == (1, 5, 53)
    for snap in trace.u:
        assert snap.shape == (1, 5, 12)


def test_trace_length_covers_every_iterate(tiny_op, rng):
    model = mini_model("lpgd", "ma", tiny_op, unroll=4)
    _, trace = model.reconstruct(rng.normal(size=tiny_op.m), trace=True)
    assert len(trace.x) == 5
    assert len(trace.direction) == 4


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [(), (2, 2, 3)])
def test_malformed_observation_is_one_error_for_every_scheme(variant, shape, tiny_op):
    model = mini_model(variant, "none", tiny_op)
    with pytest.raises(ValueError, match=re.escape(f"observation shape {shape}")):
        model.reconstruct(np.zeros(shape))


# Per (variant, momentum) pair, the records of one T=2 forward pass: the tape
# length and the op kinds (a pull's qualname prefix).  At t=0 the iterate is
# the untracked zero start, so lpgd's data_grad records nothing there; lpd's
# dual update records its forward pass from t=0 on (its u is live).
GRAPHS = {
    ("lpgd", "none"): (20, {"add": 2, "concat_channels": 1, "conv1d": 6,
                            "forward": 1, "prelu": 4, "reshape": 4, "sub": 1,
                            "vjp": 1}),
    ("lpgd", "ma"): (22, {"add": 2, "concat_channels": 1, "conv1d": 6,
                          "forward": 1, "prelu": 4, "reshape": 4, "scale": 1,
                          "sub": 2, "vjp": 1}),
    ("lpgd", "rma"): (78, {"add": 22, "concat_channels": 2, "conv1d": 8,
                           "forward": 1, "matvec": 18, "mul": 6, "prelu": 4,
                           "reshape": 5, "sigmoid": 6, "sub": 1, "tanh": 4,
                           "vjp": 1}),
    ("lpd", "none"): (39, {"add": 4, "concat_channels": 3, "conv1d": 10,
                           "forward": 1, "prelu": 6, "reshape": 8,
                           "slice_channels": 5, "vjp": 2}),
    ("lpd", "ma"): (44, {"add": 4, "concat_channels": 3, "conv1d": 10,
                         "forward": 1, "prelu": 6, "reshape": 8, "scale": 3,
                         "slice_channels": 5, "sub": 2, "vjp": 2}),
    ("lpd", "rma"): (95, {"add": 24, "concat_channels": 3, "conv1d": 12,
                          "forward": 1, "matvec": 18, "mul": 6, "prelu": 6,
                          "reshape": 8, "sigmoid": 6, "slice_channels": 5,
                          "tanh": 4, "vjp": 2}),
}
for _momentum in MOMENTA:  # one shared block records what per-iteration ones do
    GRAPHS["lpgdsw", _momentum] = GRAPHS["lpgd", _momentum]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("momentum", MOMENTA)
def test_forward_graph_of_every_pair(variant, momentum, tiny_op, rng):
    model = mini_model(variant, momentum, tiny_op)
    with Tape() as tape:
        tape.watch(*model.param_list())
        model.reconstruct(rng.normal(size=(3, tiny_op.m)))
        kinds = Counter(pull.__qualname__.split(".")[0]
                        for _, _, pull in tape._records)
        assert (len(tape), dict(kinds)) == GRAPHS[variant, momentum]


def test_batch_and_single_reconstructions_agree(tiny_op, rng):
    model = mini_model("lpd", "rma", tiny_op, unroll=2, seed=5)
    train_once(model, tiny_op, rng)
    ys = rng.normal(size=(3, tiny_op.m))
    batched = model.reconstruct(ys)
    for i in range(3):
        single = model.reconstruct(ys[i])
        assert np.allclose(batched.data[i], single.data, atol=1e-12)


def train_once(model, op, rng):
    """Nudge parameters off the zero initialization with one crude step."""
    params = model.param_list()
    ys = rng.normal(size=(2, op.m))
    xs = rng.normal(size=(2, op.n))
    with Tape() as tape:
        tape.watch(*params)
        xhat = model.reconstruct(ys)
        loss = sum_all(sub(xhat, Tensor(xs)))
        grads = backward(loss, params)
    for p in params:
        p.data = p.data - 0.05 * grads[p] + 0.01


# ---------------------------------------------------------------------------
# momentum-mode equivalences

def test_ma_with_zero_gamma_equals_scaled_direction(tiny_op):
    eta = 1e-3
    model_ma = mini_model("lpd", "ma", tiny_op, unroll=3, seed=2, eta=eta, gamma=0.0)
    model_ref = mini_model("lpd", "ma", tiny_op, unroll=3, seed=2, eta=eta, gamma=0.0)
    model_ref.momentum_module = ScaledDirection(-eta)
    # identical crude updates push both models off the zero initialization
    train_once(model_ma, tiny_op, np.random.default_rng(55))
    train_once(model_ref, tiny_op, np.random.default_rng(55))

    y = np.random.default_rng(77).normal(size=tiny_op.m)
    a = model_ma.reconstruct(y)
    b = model_ref.reconstruct(y)
    assert np.array_equal(a.data, b.data)


def test_rma_with_zero_lstm_matches_zero_direction_model(tiny_op, rng):
    model_rma = mini_model("lpgd", "rma", tiny_op, unroll=3, seed=4)
    model_ref = mini_model("lpgd", "rma", tiny_op, unroll=3, seed=4)
    for _, t in model_rma.momentum_module.named_params("rma"):
        t.data = np.zeros_like(t.data)
    model_ref.momentum_module = ZeroDirection()

    # move the shared conv parameters off zero, identically on both models
    bump_rng = np.random.default_rng(9)
    ref_params = dict(model_ref.named_params())
    for name, t in model_rma.named_params():
        if name.startswith("rma"):
            continue
        t.data = t.data + bump_rng.normal(size=t.data.shape) * 0.05
        ref_params[name].data = t.data.copy()

    y = rng.normal(size=tiny_op.m)
    assert np.array_equal(model_rma.reconstruct(y).data,
                          model_ref.reconstruct(y).data)


def test_momentum_state_isolation(tiny_op, rng):
    model = mini_model("lpd", "rma", tiny_op, unroll=3, seed=6)
    train_once(model, tiny_op, rng)
    y1 = rng.normal(size=tiny_op.m)
    y2 = rng.normal(size=tiny_op.m)
    fresh = model.reconstruct(y2).data.copy()
    model.reconstruct(y1)
    after_other = model.reconstruct(y2).data
    assert np.array_equal(fresh, after_other)


def test_reconstruction_is_deterministic(tiny_op, rng):
    model = mini_model("lpgdsw", "rma", tiny_op, unroll=3, seed=8)
    train_once(model, tiny_op, rng)
    y = rng.normal(size=tiny_op.m)
    assert np.array_equal(model.reconstruct(y).data, model.reconstruct(y).data)


# ---------------------------------------------------------------------------
# fusion layer

def test_fuse_direction_zero_weights_zero_output(tiny_op, rng):
    fusion = Conv1dLayer(np.zeros((4, 3, 3)), np.zeros(4))
    x_ch = Tensor(rng.normal(size=(1, 2, tiny_op.n)))
    v = Tensor(np.zeros((1, tiny_op.n)))
    out = fuse_direction(fusion, x_ch, v)
    assert not out.data.any()


def test_fuse_direction_output_channels():
    op = make_operator(1.0, seed=0)
    model = UnrollModel.build("lpgd", "rma", op, unroll=1, seed=0)
    fusion = model.fusions[0]
    assert fusion.kernel.data.shape[0] == 32
    x_ch = Tensor(np.zeros((1, 1, op.n)))
    v = Tensor(np.zeros((1, op.n)))
    assert fuse_direction(fusion, x_ch, v).data.shape == (1, 32, op.n)


def test_fuse_direction_gradient_reaches_both_inputs(rng):
    fusion = Conv1dLayer(rng.normal(size=(4, 3, 3)), rng.normal(size=4))
    x = rng.normal(size=(1, 2, 7))
    v = rng.normal(size=(1, 7))

    def f(xx, vv):
        return float(fuse_direction(fusion, Tensor(xx), Tensor(vv)).data.sum())

    xt, vt = Tensor(x), Tensor(v)
    with Tape() as tape:
        tape.watch(xt, vt)
        loss = sum_all(fuse_direction(fusion, xt, vt))
        g = backward(loss, [xt, vt])
    for idx, t in ((0, xt), (1, vt)):
        fd = fd_gradient(f, [x, v], idx)
        assert fd.any()
        assert rel_error(g[t], fd) <= 1e-5


# ---------------------------------------------------------------------------
# parameter counting

def test_shared_weight_count_independent_of_unroll(tiny_op):
    counts = {mini_model("lpgdsw", "ma", tiny_op, unroll=t).count_params()
              for t in (1, 5, 20)}
    assert len(counts) == 1


def test_hidden_size_doubling_quadruples_gate_matrices(tiny_op):
    def gate_matrix_total(hidden):
        model = mini_model("lpd", "rma", tiny_op, lstm_hidden=hidden)
        return sum(t.data.size for name, t in model.named_params()
                   if any(name.endswith(f".w_h{g}") for g in "cfio"))

    assert gate_matrix_total(10) == 4 * gate_matrix_total(5)


def test_parameter_parity_between_momentum_variants():
    op = make_operator(1.0, seed=0)
    lpd = UnrollModel.build("lpd", "none", op).count_params()
    lpd_rma = UnrollModel.build("lpd", "rma", op).count_params()
    assert abs(lpd_rma - lpd) / lpd <= 0.15

    lpgd = UnrollModel.build("lpgd", "none", op).count_params()
    lpgd_rma = UnrollModel.build("lpgd", "rma", op).count_params()
    assert abs(lpgd_rma - lpgd) / lpgd <= 0.15


def test_count_params_equals_sum_of_sizes(tiny_op):
    model = mini_model("lpd", "rma", tiny_op)
    assert model.count_params() == sum(t.data.size for _, t in model.named_params())
    assert model.count_params() > 0


# ---------------------------------------------------------------------------
# end-to-end differentiability (miniature)

def test_end_to_end_gradients_match_fd_on_t3_miniature(tiny_op, rng):
    model = mini_model("lpd", "rma", tiny_op, unroll=3, seed=13)
    y = rng.normal(size=tiny_op.m)
    target = rng.normal(size=tiny_op.n)
    params = model.param_list()
    names = [n for n, _ in model.named_params()]

    with Tape() as tape:
        tape.watch(*params)
        xhat = model.reconstruct(y)
        diff = sub(xhat, Tensor(target))
        loss = sum_all(scale(sum_all(diff * diff), 1.0))
        grads = backward(loss, params)

    def objective(values):
        for p, v in zip(params, values):
            p.data = v
        xh = model.reconstruct(y).data
        return float(((xh - target) ** 2).sum())

    baseline = [p.data.copy() for p in params]
    h = 1e-6
    checked = 0
    rng_local = np.random.default_rng(0)
    for i, (name, p) in enumerate(zip(names, params)):
        flat = p.data.reshape(-1)
        probe = rng_local.choice(flat.size, size=min(3, flat.size), replace=False)
        for j in probe:
            orig = flat[j]
            flat[j] = orig + h
            fp = objective(baseline[:i] + [p.data] + baseline[i + 1:])
            flat[j] = orig - h
            fm = objective(baseline[:i] + [p.data] + baseline[i + 1:])
            flat[j] = orig
            fd = (fp - fm) / (2 * h)
            analytic = grads[p].reshape(-1)[j]
            denom = max(abs(fd), abs(analytic), 1e-6)
            assert abs(analytic - fd) / denom <= 1e-4, f"{name}[{j}]"
            checked += 1
    for p, v in zip(params, baseline):
        p.data = v
    assert checked >= 50


# ---------------------------------------------------------------------------
# checkpoints

def test_model_checkpoint_roundtrip(tmp_path, tiny_op, rng):
    model = mini_model("lpd", "rma", tiny_op, unroll=2, seed=21)
    train_once(model, tiny_op, rng)
    y = rng.normal(size=tiny_op.m)
    expected = model.reconstruct(y).data.copy()

    path = str(tmp_path / "model.bin")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.variant == "lpd" and loaded.momentum == "rma"
    assert loaded.operator.fingerprint() == tiny_op.fingerprint()
    for (na, ta), (nb, tb) in zip(model.named_params(), loaded.named_params()):
        assert na == nb
        assert ta.data.tobytes() == tb.data.tobytes()
    assert np.array_equal(loaded.reconstruct(y).data, expected)

    save_model(loaded, str(tmp_path / "model2.bin"))
    with open(path, "rb") as fh_a, open(tmp_path / "model2.bin", "rb") as fh_b:
        assert fh_a.read() == fh_b.read()


def test_checkpoint_meta_golden(tmp_path, tiny_op):
    model = mini_model("lpd", "rma", tiny_op, unroll=2, seed=21)
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    _, meta = load_params(path)
    assert meta == {
        "kind": "unroll-model", "variant": "lpd", "momentum": "rma",
        "unroll": 2, "n_primal": 2, "n_dual": 2, "width": 4, "kernel": 3,
        "lstm_layers": 1, "lstm_hidden": 5, "gamma": 0.9, "eta": 0.001,
        "seed": 21,
        "op": {"a": 1.0, "b": 0.0, "n": 11, "k": 5, "stride": 3, "seed": 7,
               "fingerprint": "62cf2592cc63d3e5"},
    }


# sha256 prefix per pair over its checkpoint bytes, a B=7 reconstruction and
# the unbatched reconstruction of the reloaded model.  The seed-5 weights are
# perturbed (sigma 0.005) so every layer, zero-initialized ones too, is live;
# T=13 tapers lpd's dual output layers and L=2 stacks two LSTM cells.
BUILD_GOLDEN = {
    ("lpgd", "none"): "f4d910e165d296fd", ("lpgd", "ma"): "1aecf4e220b0e6c4",
    ("lpgd", "rma"): "9fb8a2ac740336c2", ("lpgdsw", "none"): "bb4c79b7cbb7a73b",
    ("lpgdsw", "ma"): "3a43ba902f996ae8", ("lpgdsw", "rma"): "02e5e28f726db770",
    ("lpd", "none"): "b78a0968d99de29d", ("lpd", "ma"): "20c39442255f046c",
    ("lpd", "rma"): "35958ede492941c2",
}


def test_build_checkpoint_and_reconstruction_golden(tmp_path, tiny_op):
    digests = {}
    for variant in VARIANTS:
        for momentum in MOMENTA:
            model = mini_model(variant, momentum, tiny_op, unroll=13, seed=5,
                               lstm_layers=2)
            rng = np.random.default_rng(5)
            for p in model.param_list():
                p.data = p.data + 0.005 * rng.normal(size=p.data.shape)
            path = tmp_path / f"{variant}-{momentum}.bin"
            save_model(model, str(path))
            ys = rng.normal(size=(7, tiny_op.m))
            h = hashlib.sha256(path.read_bytes())
            h.update(model.reconstruct(ys).data.tobytes())
            h.update(load_model(str(path)).reconstruct(ys[0]).data.tobytes())
            digests[variant, momentum] = h.hexdigest()[:16]
    assert digests == BUILD_GOLDEN


def test_checkpoint_rejects_wrong_kind(tmp_path, tiny_op):
    from dunets.layers import save_params
    path = str(tmp_path / "other.bin")
    save_params(path, [("x", np.zeros(3))], meta={"kind": "something"})
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_model(path)


def test_model_ops_run_on_the_calling_thread(monkeypatch):
    # The tape and perfbench's tracer assume one thread: at B=256 only numpy
    # kernels may run on conv1d's and PReLU's second lane, never an op.
    calls = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    public = [f for name, f in vars(autodiff).items() if inspect.isfunction(f)
              and f.__module__ == autodiff.__name__ and not name.startswith("_")]
    modules = [m for name, m in list(sys.modules.items())
               if name == "dunets" or name.startswith("dunets.")]
    for fn in public + [volterra.forward, volterra.vjp, volterra.data_grad]:
        wrapped = spy(fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapped)
    op = make_operator(1.0, seed=3)  # protocol shapes
    y = np.random.default_rng(3).normal(size=(256, op.m))
    for variant, momentum in (("lpgd", "none"), ("lpgd", "rma"), ("lpgdsw", "ma"),
                              ("lpd", "none"), ("lpd", "rma")):
        UnrollModel.build(variant, momentum, op, seed=0).reconstruct(y)
    assert {"conv1d", "prelu", "record_op", "matvec", "forward", "vjp",
            "data_grad"} <= {name for name, _ in calls}
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert autodiff._helper is not None or autodiff._cpus() < 2
