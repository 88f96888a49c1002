import math
import os

import numpy as np
import pytest

from dunets.autodiff import Tensor, sum_all
from dunets.gradcheck import check_op
from dunets.layers import (Adam, Conv1dLayer, ConvStack, CosineSchedule,
                           LstmCell, LstmStack, clip_global_norm, global_norm,
                           he_uniform, load_params, save_params)


def zero_cell(n, d):
    cell = LstmCell.create(np.random.default_rng(0), d, n)
    for name in LstmCell.FIELDS:
        getattr(cell, name).data = np.zeros_like(getattr(cell, name).data)
    return cell


def zero_stack(n, d, layers=1):
    stack = LstmStack.create(np.random.default_rng(0), d, n, layers=layers)
    for _, t in stack.named_params("s"):
        t.data = np.zeros_like(t.data)
    return stack


# ---------------------------------------------------------------------------
# LSTM cell

def test_cell_zero_weights_halves_cell_state(rng):
    n, d = 4, 3
    cell = zero_cell(n, d)
    c0 = rng.normal(size=(n,))
    h, c = cell.step(Tensor(rng.normal(size=(d,))), Tensor(rng.normal(size=(n,))),
                     Tensor(c0))
    # gates sit at 0.5 and the candidate at 0, so c' = c/2, h' = tanh(c/2)/2
    assert np.allclose(c.data, 0.5 * c0, atol=1e-15)
    assert np.allclose(h.data, 0.5 * np.tanh(0.5 * c0), atol=1e-15)


def test_cell_zero_weights_zero_state_is_fixed_point():
    cell = zero_cell(4, 3)
    h, c = cell.step(Tensor(np.ones(3)), Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    assert not h.data.any() and not c.data.any()


def scalar_cell_oracle(cell, z, h, c):
    """Re-implementation with python floats and explicit loops."""
    n = h.shape[0]

    def mv(w, v):
        return [sum(w[i][j] * v[j] for j in range(len(v))) for i in range(n)]

    def sig(t):
        return 1.0 / (1.0 + math.exp(-t))

    def gate(wh, wg, b, fn):
        lin = [a + bb + cc for a, bb, cc in zip(mv(wh, h), mv(wg, z), b)]
        return [fn(t) for t in lin]

    cand = gate(cell.w_hc.data, cell.w_gc.data, cell.b_c.data, math.tanh)
    f = gate(cell.w_hf.data, cell.w_gf.data, cell.b_f.data, sig)
    i = gate(cell.w_hi.data, cell.w_gi.data, cell.b_i.data, sig)
    o = gate(cell.w_ho.data, cell.w_go.data, cell.b_o.data, sig)
    c_new = [ff * cc + ii * gg for ff, cc, ii, gg in zip(f, c, i, cand)]
    h_new = [oo * math.tanh(cc) for oo, cc in zip(o, c_new)]
    return np.array(h_new), np.array(c_new)


def test_cell_matches_scalar_loop_oracle(rng):
    n, d = 5, 4
    cell = LstmCell.create(rng, d, n)
    z = rng.normal(size=(d,))
    h0 = rng.normal(size=(n,))
    c0 = rng.normal(size=(n,))
    h, c = cell.step(Tensor(z), Tensor(h0), Tensor(c0))
    h_ref, c_ref = scalar_cell_oracle(cell, z, h0, c0)
    assert np.allclose(h.data, h_ref, atol=1e-14)
    assert np.allclose(c.data, c_ref, atol=1e-14)


def test_cell_zero_weights_is_input_oblivious(rng):
    # with zero weight matrices the outputs depend only on the biases and
    # the incoming cell state, whatever g and h carry
    cell = zero_cell(4, 3)
    for name in ("b_c", "b_f", "b_i", "b_o"):
        getattr(cell, name).data = rng.normal(size=4)
    c0 = rng.normal(size=4)
    outs = []
    for _ in range(3):
        h, c = cell.step(Tensor(rng.normal(size=3) * 10),
                         Tensor(rng.normal(size=4) * 10), Tensor(c0))
        outs.append((h.data.copy(), c.data.copy()))
    for h, c in outs[1:]:
        assert np.array_equal(h, outs[0][0])
        assert np.array_equal(c, outs[0][1])


def test_cell_dimension_mismatch():
    cell = zero_cell(4, 3)
    with pytest.raises(Exception):
        cell.step(Tensor(np.zeros(7)), Tensor(np.zeros(4)), Tensor(np.zeros(4)))


def test_cell_gradients_match_finite_differences(rng):
    n, d = 3, 2
    cell = LstmCell.create(rng, d, n)
    z = rng.normal(size=(d,))
    h0 = rng.normal(size=(n,))
    c0 = rng.normal(size=(n,))

    def build(w_hc, w_gc, zz, hh, cc):
        cell.w_hc = w_hc
        cell.w_gc = w_gc
        h, c = cell.step(zz, hh, cc)
        return sum_all(h) + sum_all(c)

    err = check_op(build, [cell.w_hc.data.copy(), cell.w_gc.data.copy(), z, h0, c0])
    assert err <= 1e-5


# ---------------------------------------------------------------------------
# LSTM stack

def test_stack_zero_weights_outputs_bias(rng):
    stack = zero_stack(n=4, d=6)
    g = rng.normal(size=(6,))
    v, _ = stack(Tensor(g), stack.initial_state())
    assert np.array_equal(v.data, np.zeros(6))

    beta = rng.normal(size=(6,))
    stack.b_g.data = beta
    state = [(Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(4,))))]
    v, _ = stack(Tensor(g), state)
    assert np.array_equal(v.data, beta)


def test_two_layer_stack_equals_manual_composition(rng):
    stack = LstmStack.create(rng, input_size=5, hidden_size=4, layers=2)
    g = rng.normal(size=(5,))
    state = stack.initial_state()
    v, new_state = stack(Tensor(g), state)

    h0, c0 = stack.cells[0].step(Tensor(g), *state[0])
    h1, c1 = stack.cells[1].step(h0, *state[1])
    v_ref = stack.w_hg.data @ h1.data + stack.b_g.data
    assert np.allclose(v.data, v_ref, atol=1e-14)
    assert np.array_equal(new_state[0][0].data, h0.data)
    assert np.array_equal(new_state[1][1].data, c1.data)


def test_stack_rejects_wrong_state_depth(rng):
    stack = LstmStack.create(rng, 3, 4, layers=2)
    with pytest.raises(ValueError, match="layers"):
        stack(Tensor(np.zeros(3)), stack.initial_state()[:1])


def test_stack_step_starts_from_the_zero_state_bitwise():
    rng = np.random.default_rng(8)
    stack = LstmStack.create(rng, input_size=5, hidden_size=4, layers=2)
    for batch in (None, 3):
        shape = (5,) if batch is None else (batch, 5)
        g1, g2 = rng.normal(size=shape), rng.normal(size=shape)
        v1, state = stack.step(None, Tensor(g1))
        v2, _ = stack.step(state, Tensor(g2))
        r1, ref = stack(Tensor(g1), stack.initial_state(batch))
        r2, _ = stack(Tensor(g2), ref)
        assert v1.data.tobytes() == r1.data.tobytes()
        assert v2.data.tobytes() == r2.data.tobytes()


def test_fresh_stack_velocity_tracks_its_input(rng):
    # the output map starts as an approximate pass-through, so the initial
    # velocity points roughly along the incoming gradient
    stack = LstmStack.create(rng, input_size=53, hidden_size=50, layers=1)
    cosines = []
    for _ in range(20):
        g = rng.normal(size=53)
        v, _ = stack(Tensor(g), stack.initial_state())
        cosines.append(float(v.data @ g) /
                       (np.linalg.norm(v.data) * np.linalg.norm(g)))
    assert np.mean(cosines) > 0.3


def test_stack_is_causal_over_prefixes(rng):
    # replaying a prefix of gradients reproduces the same state and output
    stack = LstmStack.create(rng, 3, 4, layers=1)
    gs = rng.normal(size=(5, 3))
    state = stack.initial_state()
    outs = []
    for g in gs:
        v, state = stack(Tensor(g), state)
        outs.append(v.data.copy())
    state2 = stack.initial_state()
    for g, expected in zip(gs[:3], outs[:3]):
        v, state2 = stack(Tensor(g), state2)
        assert np.array_equal(v.data, expected)


# ---------------------------------------------------------------------------
# conv stack

def test_conv_stack_all_zero_params_gives_zero(rng):
    stack = ConvStack.create(rng, (2, 8, 8, 1))
    for _, t in stack.named_params("s"):
        t.data = np.zeros_like(t.data)
    out = stack(Tensor(rng.normal(size=(2, 9))))
    assert not out.data.any()


def test_conv_stack_output_layer_starts_at_zero(rng):
    stack = ConvStack.create(rng, (2, 8, 8, 1))
    assert not stack.convs[-1].kernel.data.any()
    assert not stack.convs[-1].bias.data.any()
    out = stack(Tensor(rng.normal(size=(2, 9))))
    assert not out.data.any()


def test_single_identity_conv_layer(rng):
    layer = Conv1dLayer(np.ones((1, 1, 1)), np.zeros(1))
    x = rng.normal(size=(1, 7))
    assert np.array_equal(layer(Tensor(x)).data, x)


def test_conv_stack_gradients_match_finite_differences(rng):
    stack = ConvStack.create(rng, (1, 3, 2), k=3, out_scale=1.0)
    x = rng.normal(size=(1, 5))
    names = [n for n, _ in stack.named_params("s")]
    arrays = [t.data.copy() for _, t in stack.named_params("s")]

    def build(*tensors):
        for (name, _), t in zip(stack.named_params("s"), tensors):
            pass
        # rebind parameters to the tracked tensors
        stack.convs[0].kernel, stack.convs[0].bias = tensors[0], tensors[1]
        stack.convs[1].kernel, stack.convs[1].bias = tensors[2], tensors[3]
        stack.slopes[0] = tensors[4]
        out = stack(Tensor(x))
        return sum_all(out)

    assert len(names) == 5
    assert check_op(build, arrays) <= 1e-5


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_keeps_parameters():
    p = Tensor(np.array([1.0, -2.0]))
    opt = Adam([p])
    opt.step([np.zeros(2)], lr=1e-3)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_approaches_signed_lr():
    p = Tensor(np.array([1.0, 1.0, 1.0]))
    g = np.array([0.3, -2.0, 1e-4])
    opt = Adam([p], eps=1e-16)
    opt.step([g], lr=1e-3)
    # bias correction makes m-hat = g and v-hat = g^2 on step one
    assert np.allclose(p.data, 1.0 - 1e-3 * np.sign(g), atol=1e-9)


def test_adam_two_steps_match_scalar_recomputation(rng):
    beta1, beta2, eps, lr = 0.9, 0.99, 1e-8, 7e-3
    p0 = rng.normal(size=(4,))
    g1 = rng.normal(size=(4,))
    g2 = rng.normal(size=(4,))

    p = Tensor(p0.copy())
    opt = Adam([p], beta1=beta1, beta2=beta2, eps=eps)
    opt.step([g1], lr=lr)
    opt.step([g2], lr=lr)

    ref = p0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in ((1, g1), (2, g2)):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        ref = ref - lr * mh / (np.sqrt(vh) + eps)
    assert np.allclose(p.data, ref, atol=1e-14)


def test_adam_sign_flip_symmetry(rng):
    # flipping gradients and the start point flips the trajectory
    p0 = rng.normal(size=(3,))
    gs = rng.normal(size=(5, 3))

    def run(sign):
        p = Tensor(sign * p0.copy())
        opt = Adam([p])
        for g in gs:
            opt.step([sign * g], lr=1e-2)
        return p.data

    assert np.allclose(run(1.0), -run(-1.0), atol=1e-14)


def test_adam_rejects_mismatched_gradients():
    opt = Adam([Tensor(np.zeros(3))])
    with pytest.raises(ValueError):
        opt.step([np.zeros(2)], lr=1e-3)


def test_adam_rejects_a_bad_gradient_before_changing_state(rng):
    p, q = Tensor(rng.normal(size=(3,))), Tensor(rng.normal(size=(2, 2)))
    opt = Adam([p, q])
    opt.step([rng.normal(size=(3,)), rng.normal(size=(2, 2))], lr=1e-2)
    before = [p.data.copy(), q.data.copy()]
    with pytest.raises(ValueError):
        opt.step([rng.normal(size=(3,)), rng.normal(size=(4,))], lr=1e-2)
    assert opt.t == 1
    assert np.array_equal(p.data, before[0]) and np.array_equal(q.data, before[1])
    q.data = np.zeros(5)  # a rebind that no longer fits the moments
    with pytest.raises(ValueError, match="sizes changed"):
        opt.step([rng.normal(size=(3,)), rng.normal(size=(5,))], lr=1e-2)
    assert opt.t == 1 and np.array_equal(p.data, before[0])


def test_flat_adam_matches_per_tensor_loop_bitwise(rng):
    beta1, beta2, eps = 0.8, 0.95, 1e-7
    shapes = [(), (3,), (2, 4), (2, 3, 5), (1,)]
    start = [rng.normal(size=s) for s in shapes]
    params = [Tensor(a.copy()) for a in start]
    opt = Adam(params, beta1=beta1, beta2=beta2, eps=eps)
    ref = [a.copy() for a in start]
    m = [np.zeros_like(a) for a in start]
    v = [np.zeros_like(a) for a in start]
    for t in range(1, 6):
        if t == 3:
            # the caller rebinds one parameter; Adam must read it afresh and
            # never write the array it was handed
            rebound = rng.normal(size=shapes[2])
            params[2].data = rebound
            ref[2] = rebound.copy()
            handed = rebound.tobytes()
        grads = [rng.normal(size=s) for s in shapes]
        lr = 1e-2 / t
        opt.step(grads, lr)
        c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for i, g in enumerate(grads):
            m[i] *= beta1
            m[i] += (1.0 - beta1) * g
            v[i] *= beta2
            v[i] += (1.0 - beta2) * g * g
            ref[i] = ref[i] - lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
        for p, r in zip(params, ref):
            assert p.data.shape == r.shape
            assert p.data.tobytes() == r.tobytes()
    assert rebound.tobytes() == handed
    assert opt.m.tobytes() == np.concatenate([a.ravel() for a in m]).tobytes()
    assert opt.v.tobytes() == np.concatenate([a.ravel() for a in v]).tobytes()


def test_adam_over_no_parameters():
    opt = Adam([])
    opt.step([], lr=1e-3)
    opt.step([], lr=1e-3)
    assert opt.t == 2 and opt.m.size == 0
    with pytest.raises(ValueError):
        opt.step([np.zeros(1)], lr=1e-3)


# ---------------------------------------------------------------------------
# schedule and clipping

def test_cosine_endpoints_and_midpoint():
    sched = CosineSchedule(1e-3, 100)
    assert sched.rate(0) == 1e-3
    assert abs(sched.rate(100)) == 0.0
    assert abs(sched.rate(50) - 5e-4) <= 1e-18


def test_cosine_monotone_and_clamped():
    sched = CosineSchedule(1e-3, 37)
    rates = [sched.rate(t) for t in range(38)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert sched.rate(38) == 0.0
    assert sched.rate(1000) == 0.0


def test_clip_scales_down_to_unit_norm():
    grads = [np.array([2.0, 0.0]), np.array([0.0, 0.0])]
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == 2.0
    assert np.allclose(clipped[0], [1.0, 0.0])
    assert abs(global_norm(clipped) - 1.0) <= 1e-12


def test_clip_leaves_small_gradients_alone():
    grads = [np.array([0.3, 0.4])]
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == 0.5
    assert clipped[0] is grads[0]


def test_clip_norm_is_min_of_norm_and_bound(rng):
    for _ in range(30):
        grads = [rng.normal(size=(4,)) * rng.uniform(0.1, 3.0)]
        before = global_norm(grads)
        clipped, _ = clip_global_norm(grads, 1.0)
        assert abs(global_norm(clipped) - min(before, 1.0)) <= 1e-12


def test_clip_is_idempotent(rng):
    grads = [rng.normal(size=(6,)) * 5.0]
    once, _ = clip_global_norm(grads, 1.0)
    twice, _ = clip_global_norm(once, 1.0)
    assert np.allclose(once[0], twice[0], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# initialization

def test_same_seed_bit_identical_init():
    a = LstmStack.create(np.random.default_rng(42), 5, 7, layers=2)
    b = LstmStack.create(np.random.default_rng(42), 5, 7, layers=2)
    for (_, ta), (_, tb) in zip(a.named_params("s"), b.named_params("s")):
        assert np.array_equal(ta.data, tb.data)


def test_different_seeds_differ():
    a = LstmStack.create(np.random.default_rng(1), 5, 7)
    b = LstmStack.create(np.random.default_rng(2), 5, 7)
    assert not np.array_equal(a.w_hg.data, b.w_hg.data)


def test_he_fan_in_variance():
    kernel = he_uniform(np.random.default_rng(0), (32, 32, 3), fan_in=32 * 3)
    target = 2.0 / (32 * 3)
    assert abs(kernel.var() - target) <= 0.2 * target


def test_forget_gate_bias_is_one():
    cell = LstmCell.create(np.random.default_rng(0), 3, 4)
    assert np.array_equal(cell.b_f.data, np.ones(4))
    assert not cell.b_i.data.any()


# ---------------------------------------------------------------------------
# parameter files

def test_params_roundtrip_bit_exact(tmp_path, rng):
    named = [("a.weight", rng.normal(size=(3, 4))),
             ("a.bias", rng.normal(size=(4,))),
             ("scalar", np.array(2.0))]
    path = os.path.join(tmp_path, "params.bin")
    save_params(path, named, meta={"note": "x"})
    loaded, meta = load_params(path)
    assert meta == {"note": "x"}
    for name, arr in named:
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == np.ascontiguousarray(arr, dtype="<f8").tobytes()


def test_interrupted_save_params_keeps_old_file(tmp_path, rng, torn_writes):
    path = os.path.join(tmp_path, "params.bin")
    old = [("w", rng.normal(size=(3, 4)))]
    save_params(path, old, meta={"note": "old"})
    torn_writes.add("params.bin")
    with pytest.raises(OSError, match="torn"):
        save_params(path, [("w", rng.normal(size=(5, 4)))], meta={"note": "new"})
    loaded, meta = load_params(path)
    assert meta == {"note": "old"}
    assert np.array_equal(loaded["w"], old[0][1])
    assert os.listdir(tmp_path) == ["params.bin"]


def test_params_file_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b'{"format": "something-else", "tensors": []}\n')
    with pytest.raises(ValueError):
        load_params(path)
