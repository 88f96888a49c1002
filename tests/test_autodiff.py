import hashlib
import os
import signal
import time

import numpy as np
import pytest

from dunets import autodiff
from dunets.autodiff import (ShapeError, Tape, Tensor, backward, add,
                             concat_channels, conv1d, matvec, mul, prelu,
                             reshape, scale, sigmoid,
                             slice_channels, sub, sum_all, tanh)
from dunets.gradcheck import check_op, fd_gradient, rel_error


def grads_of(build, arrays):
    tensors = [Tensor(a) for a in arrays]
    with Tape() as tape:
        tape.watch(*tensors)
        loss = build(*tensors)
        out = backward(loss, tensors)
    return [out[t] for t in tensors]


# ---------------------------------------------------------------------------
# elementwise

def test_add_componentwise():
    assert np.array_equal(add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data,
                          [4.0, 6.0])


def test_mul_by_zero_annihilates_value_and_gradient():
    x = Tensor([1.5, -2.0, 3.0])
    with Tape() as tape:
        tape.watch(x)
        out = scale(x, 0.0)
        assert not out.data.any()
        g = backward(sum_all(out), [x])
    assert np.array_equal(g[x], np.zeros(3))


def test_grad_of_sum_of_product_is_other_factor(rng):
    # d/da sum(a*b) = b; checked against central differences
    a = rng.normal(size=(4,))
    b = rng.normal(size=(4,))
    ga, gb = grads_of(lambda x, y: sum_all(mul(x, y)), [a, b])
    assert np.allclose(ga, b, atol=1e-12)
    fd = fd_gradient(lambda x, y: float((x * y).sum()), [a, b], 0)
    assert rel_error(ga, fd) <= 1e-5


def test_elementwise_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_broadcast_add_reduces_gradient_over_batch(rng):
    bias = rng.normal(size=(3,))
    x = rng.normal(size=(5, 3))
    err = check_op(lambda bb, xx: sum_all(tanh(add(xx, bb))), [bias, x])
    assert err <= 1e-5


# ---------------------------------------------------------------------------
# matvec

def test_matvec_identity():
    out = matvec(Tensor(np.eye(3)), Tensor([1.0, 2.0, 3.0]))
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])


def test_matvec_direct_summation(rng):
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([1.0, 1.0])
    expected = np.array([sum(w[i, j] * x[j] for j in range(2)) for i in range(2)])
    assert np.array_equal(matvec(Tensor(w), Tensor(x)).data, expected)
    assert np.array_equal(expected, [3.0, 7.0])


def test_matvec_adjoint_identity(rng):
    for _ in range(50):
        w = rng.normal(size=(4, 6))
        x = rng.normal(size=(6,))
        u = rng.normal(size=(4,))
        lhs = np.dot(w @ x, u)
        rhs = np.dot(x, w.T @ u)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        # the engine's input-gradient is exactly the adjoint applied to u
        (_, gx) = grads_of(lambda ww, xx: sum_all(mul(matvec(ww, xx), Tensor(u))),
                           [w, x])
        assert rel_error(gx, w.T @ u) <= 1e-12


def test_matvec_dimension_mismatch():
    with pytest.raises(ShapeError):
        matvec(Tensor(np.eye(3)), Tensor([1.0, 2.0]))


def test_matvec_batched_matches_loop(rng):
    w = rng.normal(size=(3, 5))
    xb = rng.normal(size=(4, 5))
    out = matvec(Tensor(w), Tensor(xb)).data
    for i in range(4):
        assert np.allclose(out[i], w @ xb[i], atol=0)
    err = check_op(lambda ww, xx: sum_all(tanh(matvec(ww, xx))), [w, xb])
    assert err <= 1e-5


# ---------------------------------------------------------------------------
# conv1d

def conv_oracle(x, kernel, bias):
    """Direct double-loop same-padded cross-correlation."""
    c_out, c_in, k = kernel.shape
    n = x.shape[-1]
    pad = k // 2
    out = np.zeros((c_out, n))
    for o in range(c_out):
        for pos in range(n):
            acc = bias[o]
            for c in range(c_in):
                for j in range(k):
                    src = pos + j - pad
                    if 0 <= src < n:
                        acc += x[c, src] * kernel[o, c, j]
            out[o, pos] = acc
    return out


def test_conv1d_kernel_size_one_identity():
    x = np.array([[1.0, -2.0, 3.0]])
    out = conv1d(Tensor(x), Tensor([[[1.0]]]), Tensor([0.0]))
    assert np.array_equal(out.data, x)


def test_conv1d_impulse_matches_double_loop_oracle():
    x = np.array([[0.0, 1.0, 0.0]])
    kernel = np.array([[[1.0, 2.0, 3.0]]])
    bias = np.zeros(1)
    expected = conv_oracle(x, kernel, bias)
    assert np.array_equal(expected, [[3.0, 2.0, 1.0]])
    assert np.array_equal(conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data,
                          expected)


# (B, C_in, N, C_out, k); B None means an unbatched (C_in, N) input
SMALL_CONV_SHAPES = [
    (None, 3, 7, 2, 3),
    (None, 1, 5, 2, 1),
    (None, 2, 1, 3, 5),   # N < k: every tap but the centre reads padding
    (1, 1, 2, 2, 5),      # B = 1, C_in = 1, N < k
    (4, 2, 6, 3, 3),
    (3, 3, 9, 2, 5),
    (2, 2, 4, 1, 1),
    (64, 2, 5, 3, 3),     # two whole 32-sample column blocks
    (41, 3, 4, 2, 3),     # a whole block and a ragged one
    # k·C_out <= C_in: the forward sums the taps of the output side
    (3, 7, 6, 2, 3),
    (2, 6, 5, 2, 3),      # on the rule's edge
    (40, 9, 5, 3, 3),     # over two tiles
    (None, 5, 4, 1, 5),   # k = 5 with N < k
    (2, 5, 2, 1, 5),      # N = 2: the outer taps read padding only
    # k·C_in <= C_out: the pull builds the input's columns
    (3, 2, 6, 7, 3),
    (2, 2, 5, 6, 3),      # on the rule's edge
    (40, 2, 5, 7, 3),     # over two tiles
    (1, 1, 2, 5, 5),      # N < k
]
# the protocol's hidden and output convs at the training batch size, and
# the lpd input and output convs
PROTOCOL_CONV_SHAPES = [(32, 32, 53, 32, 3), (32, 32, 53, 1, 3),
                        (32, 7, 53, 32, 3), (32, 32, 53, 5, 3)]
CONV_SHAPES = SMALL_CONV_SHAPES + PROTOCOL_CONV_SHAPES


def conv_draw(rng, shape):
    b_sz, c_in, n, c_out, k = shape
    x = rng.normal(size=(c_in, n) if b_sz is None else (b_sz, c_in, n))
    return x, rng.normal(size=(c_out, c_in, k)), rng.normal(size=(c_out,))


def test_conv1d_random_matches_oracle(rng):
    # the loop oracle is too slow at protocol shapes; the adjoint identity
    # below checks conv1d there against its gradient oracles
    for shape in SMALL_CONV_SHAPES * 20:
        x, kernel, bias = conv_draw(rng, shape)
        out = conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data
        expected = (conv_oracle(x, kernel, bias) if x.ndim == 2 else
                    np.stack([conv_oracle(xi, kernel, bias) for xi in x]))
        assert out.shape == expected.shape
        # batched outputs are channel-major: (B, C, N) shape, (C, B, N) memory
        assert (out.transpose(1, 0, 2) if out.ndim == 3 else out).flags.c_contiguous
        assert np.allclose(out, expected, atol=1e-12)


def test_conv1d_adjoint_identity(rng):
    for shape in CONV_SHAPES * 50:
        x, kernel, _ = conv_draw(rng, shape)
        c_out, _, k = kernel.shape
        u = rng.normal(size=x.shape[:-2] + (c_out, x.shape[-1]))
        zero_bias = np.zeros(c_out)
        lhs = float((conv1d(Tensor(x), Tensor(kernel), Tensor(zero_bias)).data * u).sum())
        (gx, gk, gb) = grads_of(
            lambda xx, kk, bb: sum_all(mul(conv1d(xx, kk, bb), Tensor(u))),
            [x, kernel, zero_bias])
        rhs = float((x * gx).sum())
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        # the loss <conv1d(x, K, 0), u> is linear in K:
        # g_K[o, c, j] = sum_{b, n} u[b, o, n] * x_pad[b, c, n + j]
        xb, ub = (x, u) if x.ndim == 3 else (x[None], u[None])
        n, pad = x.shape[-1], k // 2
        x_pad = np.pad(xb, ((0, 0), (0, 0), (pad, pad)))
        expected = np.stack([np.einsum("bon,bcn->oc", ub, x_pad[:, :, j:j + n])
                             for j in range(k)], axis=-1)
        assert np.allclose(gk, expected, rtol=0, atol=1e-12 * max(abs(expected).max(), 1.0))
        assert np.allclose(gb, ub.sum(axis=(0, 2)), rtol=0, atol=1e-12 * ub.size)
        # and in x: g_x_pad[b, c, n + j] += sum_o K[o, c, j] * u[b, o, n]
        g_pad = np.zeros_like(x_pad)
        for j in range(k):
            g_pad[:, :, j:j + n] += np.einsum("oc,bon->bcn", kernel[:, :, j], ub)
        assert np.allclose(gx, g_pad[:, :, pad:pad + n].reshape(gx.shape), rtol=0, atol=1e-12 * ub.size)


def test_conv1d_input_gradient_is_the_flipped_transposed_correlation(rng):
    # the pull's x gradient is conv1d of the output gradient with the kernel
    # flipped in its taps and transposed in its channels, bit for bit;
    # array_equal, not bytes, as the zero bias may turn a -0.0 into +0.0.
    # One exception: with C_in = 1 and column GEMMs (C_out < k), each block
    # is a one-row product, which numpy hands to BLAS gemv, and gemv may round
    # a tile sliced from the pull's whole-batch columns differently from the
    # forward's own copy of it (seen on a ragged tile of <= 3 columns)
    for _, c_in, n, c_out, k in CONV_SHAPES:
        for b_sz in (1, 33):
            x, kernel, bias = conv_draw(rng, (b_sz, c_in, n, c_out, k))
            g = rng.normal(size=(b_sz, c_out, n))
            xt = Tensor(x)
            with Tape() as tape:
                tape.watch(xt)
                out = conv1d(xt, Tensor(kernel), Tensor(bias))
                g_x = backward(sum_all(mul(out, Tensor(g))), [xt])[xt]
            flipped = kernel[:, :, ::-1].transpose(1, 0, 2)
            expected = conv1d(Tensor(g), Tensor(flipped), Tensor(np.zeros(c_in)))
            if c_in == 1 and c_out < k and b_sz > 32:
                assert np.allclose(g_x, expected.data, rtol=1e-13, atol=1e-13)
            else:
                assert np.array_equal(g_x, expected.data), (b_sz, c_in, n, c_out, k)


IM2COL = autodiff._im2col


def conv_columns_built(rng, monkeypatch, shape):
    """Shapes of the im2col sets that conv1d's forward and pull build."""
    built = {"forward": [], "pull": []}
    phase = "forward"

    def spy(xb, k):
        cols = IM2COL(xb, k)
        built[phase].append(cols.shape)
        return cols

    monkeypatch.setattr(autodiff, "_im2col", spy)
    x, kernel, bias = conv_draw(rng, shape)
    u = rng.normal(size=x.shape[:-2] + (kernel.shape[0], x.shape[-1]))
    tensors = [Tensor(x), Tensor(kernel), Tensor(bias)]
    with Tape() as tape:
        tape.watch(*tensors)
        loss = sum_all(mul(conv1d(*tensors), Tensor(u)))
        phase = "pull"
        backward(loss, tensors)
    return built


def test_conv1d_pull_builds_one_set_of_columns(rng, monkeypatch):
    # both gradients come from the output gradient's columns; the pull
    # builds them once for the whole batch, over one tile or more
    c_in, n, c_out, k = 6, 53, 5, 3
    for b_sz in (32, 64):
        built = conv_columns_built(rng, monkeypatch, (b_sz, c_in, n, c_out, k))
        assert built == {"forward": [(c_in * k, 32 * n)] * (b_sz // 32),  # one per tile
                         "pull": [(c_out * k, b_sz * n)]}


def test_conv1d_builds_columns_from_its_narrower_side(rng, monkeypatch):
    # 2->32: the forward expands the 2 input channels; the pull expands them
    # again, once for the whole batch, and never the 32-channel gradient
    for b_sz in (32, 64):
        built = conv_columns_built(rng, monkeypatch, (b_sz, 2, 53, 32, 3))
        assert built == {"forward": [(2 * 3, 32 * 53)] * (b_sz // 32),
                         "pull": [(2 * 3, b_sz * 53)]}
    # 32->1: the forward builds no columns; the pull expands the 1-channel
    # output gradient
    built = conv_columns_built(rng, monkeypatch, (64, 32, 53, 1, 3))
    assert built == {"forward": [], "pull": [(1 * 3, 64 * 53)]}
    # each rule holds with equality: k·C_out == C_in, then k·C_in == C_out
    built = conv_columns_built(rng, monkeypatch, (4, 6, 5, 2, 3))
    assert built == {"forward": [], "pull": [(2 * 3, 4 * 5)]}
    built = conv_columns_built(rng, monkeypatch, (4, 2, 5, 6, 3))
    assert built == {"forward": [(2 * 3, 4 * 5)], "pull": [(2 * 3, 4 * 5)]}


def test_conv1d_wide_path_is_one_column_gemm_bitwise(rng):
    # 32->32 is on neither narrow side: up to one tile, its output is exactly
    # one GEMM of the kernel with the input's columns, plus the bias
    x, kernel, bias = conv_draw(rng, (32, 32, 53, 32, 3))
    x = channel_major(x)
    out = conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data
    cols = autodiff._im2col(x, 3)
    expected = kernel.reshape(32, -1) @ cols
    expected += bias[:, None]
    assert out.transpose(1, 0, 2).tobytes() == expected.tobytes()


@pytest.mark.parametrize("c_in, c_out", [(32, 1), (32, 5), (2, 32), (7, 32)])
def test_narrow_side_convs_are_bitwise_tile_and_layout_independent(rng, c_in, c_out):
    # the tap-summing paths give every 32-sample tile the bits of a separate
    # call on it, from either input layout
    k, n = 3, 53
    kernel, bias = rng.normal(size=(c_out, c_in, k)), rng.normal(size=c_out)

    def output_and_input_grad(x, u):
        xt = Tensor(x)
        with Tape() as tape:
            tape.watch(xt)
            out = conv1d(xt, Tensor(kernel), Tensor(bias))
            g_x = backward(sum_all(mul(out, Tensor(u))), [xt])[xt]
        return out.data, g_x

    for b_sz in (5, 41, 64):
        x = rng.normal(size=(b_sz, c_in, n))
        u = rng.normal(size=(b_sz, c_out, n))
        whole = output_and_input_grad(channel_major(x), u)
        c_order = output_and_input_grad(x, u)
        tiles = [output_and_input_grad(channel_major(x)[lo:lo + 32], u[lo:lo + 32])
                 for lo in range(0, b_sz, 32)]
        for i, a in enumerate(whole):
            assert a.transpose(1, 0, 2).flags.c_contiguous
            assert np.array_equal(a, c_order[i])
            assert np.array_equal(a, np.concatenate([t[i] for t in tiles]))


def test_im2col_matches_zero_padded_per_tap_oracle_bitwise(rng):
    # rows read across sample edges must come out zero, in every layout and
    # when the signal is shorter than the kernel (N < k)
    c = 3
    for n in (1, 2, 9):
        for k in (1, 3, 5):
            pad = k // 2
            for b_sz in (1, 7, 32, 41, 64):
                x = rng.normal(size=(b_sz + 2, c, n))
                batches = [np.ascontiguousarray(x[:b_sz]), channel_major(x[:b_sz]),
                           channel_major(x)[1:b_sz + 1]]
                if b_sz == 1:
                    batches.append(x[0][None])  # an unbatched conv1d input
                for xb in batches:
                    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad)))
                    taps = np.stack([xp[:, :, j:j + n] for j in range(k)], axis=2)
                    oracle = taps.transpose(1, 2, 0, 3).reshape(c * k, b_sz * n)
                    cols = autodiff._im2col(xb, k)
                    assert cols.shape == oracle.shape
                    assert cols.tobytes() == oracle.tobytes()


def test_conv1d_rejects_even_kernel_and_channel_mismatch():
    with pytest.raises(ShapeError, match="odd"):
        conv1d(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1, 2))),
               Tensor(np.zeros(1)))
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.zeros((2, 4))), Tensor(np.zeros((1, 3, 3))),
               Tensor(np.zeros(1)))


def test_conv1d_batched_consistent_with_per_sample(rng):
    x = rng.normal(size=(4, 2, 6))
    kernel = rng.normal(size=(3, 2, 3))
    bias = rng.normal(size=(3,))
    out = conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data
    for i in range(4):
        single = conv1d(Tensor(x[i]), Tensor(kernel), Tensor(bias)).data
        assert np.array_equal(out[i], single)


# ---------------------------------------------------------------------------
# nonlinearities

def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_matches_masked_select_reference():
    x = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300,
                  np.nan, 2.5, -2.5, 36.0, -36.0, 710.0, -745.0])
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    for shape in (x.shape, (3, 5)):
        out = autodiff._sigmoid_data(x.reshape(shape)).reshape(-1)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == ref[~nan].tobytes()


def test_prelu_negative_side():
    out = prelu(Tensor([[-1.0, 1.0]]), Tensor([0.25]))
    assert np.array_equal(out.data, [[-0.25, 1.0]])


def test_tanh_gradient_matches_finite_differences(rng):
    x = rng.normal(size=(6,))
    err = check_op(lambda t: sum_all(tanh(t)), [x])
    assert err <= 1e-5


def test_prelu_slope_gradient(rng):
    x = rng.normal(size=(2, 5))
    slope = rng.uniform(0.1, 0.5, size=2)
    # batched: magnitudes kept off the kink so the differences never cross it
    xb = rng.uniform(0.1, 1.0, size=(3, 2, 5)) * rng.choice([-1.0, 1.0], size=(3, 2, 5))
    for features in (x, xb):
        err = check_op(lambda xx, ss: sum_all(mul(prelu(xx, ss), prelu(xx, ss))),
                       [features, slope])
        assert err <= 1e-5


def test_prelu_matches_masked_select_oracle_bitwise(rng):
    # (65, 3, 7) channel-major: more than one 32-sample tile, two lanes
    for shape, layout in [((3, 7), np.asarray), ((4, 3, 7), np.asarray),
                          ((65, 3, 7), channel_major)]:
        x = rng.normal(size=shape)
        x.reshape(-1)[::5] = 0.0  # exact zeros sit on the kink
        x = layout(x)
        assert (x < 0).any() and (x > 0).any()
        slope = np.array([0.25, -0.5, 1.5])
        g = rng.normal(size=shape)
        neg = x < 0
        s = slope[:, None]
        axes = tuple(i for i in range(x.ndim) if i != x.ndim - 2)
        xt, st = Tensor(x), Tensor(slope)
        with Tape() as tape:
            tape.watch(xt, st)
            out = prelu(xt, st)
            assert len(tape) == 1  # one record per call
            grads = backward(sum_all(mul(out, Tensor(g))), [xt, st])
        assert np.array_equal(out.data, np.where(neg, x * s, x))
        assert np.array_equal(grads[xt], np.where(neg, g * s, g))
        assert np.array_equal(grads[st], (g * x * neg).sum(axis=axes))


def channel_major(a):
    """The same (B, C, N) values held in (C, B, N) memory order."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)


def test_feature_ops_are_bitwise_layout_independent(rng):
    # prelu -> concat -> conv1d -> slice, plus a direct read of the prelu
    # output; every value and gradient must not depend on the memory layout
    b_sz, c, n = 12, 3, 53  # B >= 8: numpy sums 8+ contiguous values pairwise
    for _ in range(20):
        x = rng.normal(size=(b_sz, c, n))
        x.reshape(-1)[::7] = 0.0
        other = rng.normal(size=(b_sz, 2, n))
        u_conv, u_act = rng.normal(size=(b_sz, 3, n)), rng.normal(size=(b_sz, c, n))
        slope = rng.uniform(-0.5, 1.5, size=c)
        kernel, bias = rng.normal(size=(5, c + 2, 3)), rng.normal(size=5)
        results = []
        for layout in (np.ascontiguousarray, channel_major):
            xt, ot = Tensor(layout(x)), Tensor(layout(other))
            st, kt, bt = Tensor(slope), Tensor(kernel), Tensor(bias)
            with Tape() as tape:
                tape.watch(xt, ot, st, kt, bt)
                h = prelu(xt, st)
                out = conv1d(concat_channels([h, ot]), kt, bt)
                loss = add(sum_all(mul(slice_channels(out, 1, 4), Tensor(layout(u_conv)))),
                           sum_all(mul(h, Tensor(layout(u_act)))))
                grads = backward(loss, [xt, ot, st, kt, bt])
            results.append([h.data, out.data, loss.data]
                           + [grads[t] for t in (xt, ot, st, kt, bt)])
        assert not channel_major(x).flags.c_contiguous
        for a, b in zip(*results):
            assert np.array_equal(a, b)


def test_batches_over_one_tile_equal_per_tile_calls_bitwise(rng):
    # Over 32 samples, conv1d's column blocks and the PReLU forward's channel
    # chunks may run on two lanes in any order; every value must still be the
    # one that a separate call per 32-sample block gives, in the same layout.
    # Each op's output is read as soon as the op returns (PReLU reads the
    # conv output, mul the PReLU output), so a lane still writing shows.
    c, k, n = 32, 3, 53
    kernel, bias = rng.normal(size=(c, c, k)), rng.normal(size=c)
    slope = rng.uniform(-0.5, 1.5, size=c)

    def outputs_and_input_grad(x, u):
        xt = Tensor(x)
        with Tape() as tape:
            tape.watch(xt)
            conv = conv1d(xt, Tensor(kernel), Tensor(bias))
            act = prelu(conv, Tensor(slope))
            squared = mul(act, act)
            g_x = backward(sum_all(mul(squared, Tensor(u))), [xt])[xt]
        return conv.data, act.data, squared.data, g_x

    for b_sz in (33, 41, 64, 100, 256):
        x = channel_major(rng.normal(size=(b_sz, c, n)))
        u = rng.normal(size=(b_sz, c, n))
        whole = outputs_and_input_grad(x, u)
        parts = [outputs_and_input_grad(x[lo:lo + 32], u[lo:lo + 32])
                 for lo in range(0, b_sz, 32)]
        for i, a in enumerate(whole):
            assert np.array_equal(a, np.concatenate([p[i] for p in parts])), (b_sz, i)
            assert a.transpose(1, 0, 2).flags.c_contiguous  # channel-major kept
        c_order = prelu(Tensor(np.ascontiguousarray(whole[0])), Tensor(slope)).data
        assert c_order.flags.c_contiguous and np.array_equal(c_order, whole[1])


@pytest.mark.parametrize("b_sz", [1, 31, 32, 33, 64, 96, 100, 128, 160, 255, 256,
                                  257, 512])
def test_lane_edges_cut_whole_tiles_into_at_most_four_blocks(b_sz):
    edges = autodiff._lane_edges(b_sz)
    assert edges[0] == 0 and edges[-1] == b_sz
    assert all(lo < hi for lo, hi in zip(edges[:-1], edges[1:]))
    assert all(e % 32 == 0 for e in edges[1:-1])  # interior edges on tiles
    full = edges if b_sz % 32 == 0 else edges[:-1]
    if b_sz % 32:  # the ragged tail is a block of its own
        assert edges[-2] == b_sz - b_sz % 32
    assert len(full) - 1 <= 4
    assert len(edges) - 1 >= (2 if b_sz >= 64 else 1)
    if b_sz <= 32:
        assert edges == [0, b_sz]
    if b_sz == 256:  # the evaluation batch: four GEMMs of two tiles each
        assert edges == [0, 64, 128, 192, 256]


# sha256 over conv1d's output, its x, kernel and bias gradients and the PReLU
# of the output, for the protocol kernel shapes (k=3, N=53) at evaluation
# batch sizes, from both input layouts; pinned under single-threaded BLAS.
LANE_BITS_GOLDEN = "c76957ab47088cca"


def test_conv_and_prelu_bits_at_evaluation_batch_sizes_golden():
    rng = np.random.default_rng(2501)
    h = hashlib.sha256()
    for c_in, c_out in [(32, 32), (32, 1), (32, 5), (2, 32), (6, 32), (7, 32), (7, 5)]:
        kernel, bias = rng.normal(size=(c_out, c_in, 3)), rng.normal(size=c_out)
        slope = rng.uniform(-0.5, 1.5, size=c_out)
        for b_sz in (33, 64, 65, 96, 100, 128, 160, 232, 256, 257):
            x = rng.normal(size=(b_sz, c_in, 53))
            u = rng.normal(size=(b_sz, c_out, 53))
            for layout in (np.ascontiguousarray, channel_major):
                xt, kt, bt = Tensor(layout(x)), Tensor(kernel), Tensor(bias)
                with Tape() as tape:
                    tape.watch(xt, kt, bt)
                    out = conv1d(xt, kt, bt)
                    grads = backward(sum_all(mul(out, Tensor(u))), [xt, kt, bt])
                act = prelu(out, Tensor(slope))
                for a in (out.data, grads[xt], grads[kt], grads[bt], act.data):
                    h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == LANE_BITS_GOLDEN


def test_forked_child_builds_its_own_second_lane(rng):
    # A child forked after the helper lane started (``dunets sweep --jobs``
    # forks its workers) inherits the executor but not its thread.
    x = rng.normal(size=(64, 4, 53))
    kernel, bias = rng.normal(size=(5, 4, 3)), rng.normal(size=5)
    out = conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data
    inherited = autodiff._helper
    assert inherited is not None or autodiff._cpus() < 2
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            again = conv1d(Tensor(x), Tensor(kernel), Tensor(bias)).data
            rebuilt = autodiff._helper is not inherited or autodiff._cpus() < 2
            code = 0 if rebuilt and np.array_equal(again, out) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on its first two-lane conv")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0


# ---------------------------------------------------------------------------
# concat / slice

def test_concat_shape_law():
    a, b = Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3)))
    assert concat_channels([a, b]).data.shape == (2, 3)


def test_concat_then_slice_recovers_parts(rng):
    a = rng.normal(size=(2, 4))
    b = rng.normal(size=(3, 4))
    joined = concat_channels([Tensor(a), Tensor(b)])
    assert np.array_equal(slice_channels(joined, 0, 2).data, a)
    assert np.array_equal(slice_channels(joined, 2, 5).data, b)


def test_concat_gradient_routing(rng):
    # a loss that reads only the second part must not reach the first
    a = rng.normal(size=(1, 4))
    b = rng.normal(size=(1, 4))
    ga, gb = grads_of(
        lambda x, y: sum_all(slice_channels(concat_channels([x, y]), 1, 2)),
        [a, b])
    assert np.array_equal(ga, np.zeros_like(a))
    assert np.array_equal(gb, np.ones_like(b))
    fd = fd_gradient(
        lambda x, y: float(np.concatenate([x, y], axis=0)[1].sum()), [a, b], 0)
    assert np.array_equal(fd, np.zeros_like(a))


def test_concat_rejects_mismatched_extent():
    with pytest.raises(ShapeError):
        concat_channels([Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4)))])


# ---------------------------------------------------------------------------
# backward

def test_constant_loss_gives_zero_gradients(rng):
    p = Tensor(rng.normal(size=(3,)))
    with Tape() as tape:
        tape.watch(p)
        loss = Tensor(2.5)  # constant, never touches p
        g = backward(loss, [p])
    assert np.array_equal(g[p], np.zeros(3))


def test_half_squared_norm_gradient_is_x(rng):
    x = rng.normal(size=(5,))
    (g,) = grads_of(lambda t: scale(sum_all(mul(t, t)), 0.5), [x])
    assert np.allclose(g, x, atol=1e-14)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        tape.watch(x)
        with pytest.raises(ShapeError, match="scalar"):
            backward(add(x, x), [x])


def test_composite_network_matches_finite_differences(rng):
    def build(w1, x, w2, b):
        hidden = tanh(matvec(w1, x))
        out = add(matvec(w2, hidden), b)
        return sum_all(mul(out, out))

    arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3,)),
              rng.normal(size=(2, 4)), rng.normal(size=(2,))]
    assert check_op(build, arrays) <= 1e-5


def test_backward_is_linear_in_the_loss(rng):
    x = rng.normal(size=(4,))
    alpha, beta = 0.7, -1.3

    def l1(t):
        return sum_all(mul(t, t))

    def l2(t):
        return sum_all(tanh(t))

    (g1,) = grads_of(l1, [x])
    (g2,) = grads_of(l2, [x])
    (g,) = grads_of(lambda t: add(scale(l1(t), alpha), scale(l2(t), beta)), [x])
    assert np.allclose(g, alpha * g1 + beta * g2, rtol=1e-12, atol=1e-14)


def test_fanout_gradients_accumulate(rng):
    x = rng.normal(size=(3,))
    # y = x used twice: d/dx sum(x*x + x) = 2x + 1
    (g,) = grads_of(lambda t: sum_all(add(mul(t, t), t)), [x])
    assert np.allclose(g, 2 * x + 1, atol=1e-14)


def test_tape_replay_determinism(rng):
    arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4,))]

    def run():
        return grads_of(lambda w, x: sum_all(tanh(matvec(w, x))), arrays)

    out1, out2 = run(), run()
    for a, b in zip(out1, out2):
        assert np.array_equal(a, b)


def test_closed_tape_stops_recording(rng):
    x = Tensor(rng.normal(size=(3,)))
    with Tape() as tape:
        tape.watch(x)
        y = mul(x, x)
        assert y.tape is tape
    z = mul(x, x)  # tape closed: constant evaluation
    assert z.tape is None


def test_mixing_open_tapes_is_rejected():
    t1, t2 = Tape(), Tape()
    a, b = Tensor([1.0]), Tensor([2.0])
    t1.watch(a)
    t2.watch(b)
    with pytest.raises(RuntimeError, match="different open tapes"):
        add(a, b)
    t1.close()
    t2.close()


def test_unreachable_parameter_gets_zeros(rng):
    used = Tensor(rng.normal(size=(2,)))
    unused = Tensor(rng.normal(size=(5,)))
    with Tape() as tape:
        tape.watch(used, unused)
        g = backward(sum_all(mul(used, used)), [used, unused])
    assert g[unused].shape == (5,)
    assert not g[unused].any()


def test_reshape_roundtrip_gradient(rng):
    x = rng.normal(size=(6,))
    err = check_op(lambda t: sum_all(mul(reshape(t, (2, 3)), reshape(t, (2, 3)))),
                   [x])
    assert err <= 1e-5


def test_sub_gradient_signs(rng):
    a, b = rng.normal(size=(3,)), rng.normal(size=(3,))
    ga, gb = grads_of(lambda x, y: sum_all(sub(x, y)), [a, b])
    assert np.array_equal(ga, np.ones(3))
    assert np.array_equal(gb, -np.ones(3))
