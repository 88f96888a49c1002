import hashlib
import os
import warnings

import numpy as np
import pytest

from dunets import volterra
from dunets.autodiff import ShapeError, Tape, Tensor, backward, mul, sum_all
from dunets.gradcheck import fd_gradient, rel_error
from dunets.volterra import (SPLITS, VolterraOperator, _measure, _pullback,
                             _quad_form, _scatter_windows, _stream_words,
                             _window_positions, data_grad, forward,
                             gen_dataset, load_dataset, make_operator,
                             sample_tv_prior, save_dataset, vjp)


def forward_oracle(op, x):
    """Window-by-window double loop evaluation of the measurement map."""
    y = np.zeros(op.m)
    for i in range(op.m):
        w = x[i * op.stride:i * op.stride + op.k]
        quad = 0.0
        for p in range(op.k):
            for q in range(op.k):
                quad += w[p] * op.w2[p, q] * w[q]
        y[i] = op.a * quad + float(np.dot(op.w1, w)) + op.b
    return y


def jvp_oracle(op, x, delta):
    """Directional derivative of the map by explicit window algebra."""
    out = np.zeros(op.m)
    for i in range(op.m):
        sl = slice(i * op.stride, i * op.stride + op.k)
        w, dw = x[sl], delta[sl]
        out[i] = op.a * (dw @ op.w2 @ w + w @ op.w2 @ dw) + op.w1 @ dw
    return out


# ---------------------------------------------------------------------------
# operator construction

def test_make_operator_is_seed_deterministic():
    a = make_operator(1.0, seed=5)
    b = make_operator(1.0, seed=5)
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert a.fingerprint() == b.fingerprint()
    assert make_operator(1.0, seed=6).fingerprint() != a.fingerprint()


def test_make_operator_upper_triangular():
    op = make_operator(2.0, seed=3)
    assert not np.tril(op.w2, -1).any()
    assert np.triu(op.w2).any()


def test_default_dimensions():
    op = make_operator(1.0, seed=0)
    assert (op.n, op.k, op.stride, op.m) == (53, 9, 4, 12)


def test_operator_rejects_bad_geometry():
    with pytest.raises(ValueError, match="tile"):
        VolterraOperator(w1=np.zeros(4), w2=np.zeros((4, 4)), a=1.0, b=0.0,
                         stride=3, n=9)
    with pytest.raises(ValueError, match="upper-triangular"):
        VolterraOperator(w1=np.zeros(2), w2=np.array([[0.0, 0.0], [1.0, 0.0]]),
                         a=1.0, b=0.0, stride=1, n=3)
    with pytest.raises(ValueError):
        make_operator(-1.0, seed=0)


@pytest.mark.parametrize("n, k, stride", [(53, 9, 0), (53, 9, -4), (53, 0, 4),
                                          (5, 9, 1)])
def test_operator_rejects_a_geometry_it_cannot_measure(n, k, stride):
    with pytest.raises(ValueError, match="stride >= 1 and 1 <= window size k"):
        make_operator(1.0, seed=0, n=n, k=k, stride=stride)
    with pytest.raises(ValueError, match="stride >= 1 and 1 <= window size k"):
        VolterraOperator(w1=np.zeros(k), w2=np.zeros((k, k)), a=1.0, b=0.0,
                         stride=stride, n=n)


# ---------------------------------------------------------------------------
# forward map

def test_forward_of_zero_is_bias():
    op = make_operator(1.0, seed=0, n=11, k=5, stride=3)
    op.b = 0.75
    assert np.allclose(forward(op, np.zeros(11)), 0.75)


def test_forward_two_window_worked_example():
    # windows [1,2,3] and [3,4,5]; quadratic term picks w[0]*w[2]
    op = VolterraOperator(
        w1=np.array([1.0, 0.0, 0.0]),
        w2=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        a=1.0, b=0.0, stride=2, n=5)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    expected = forward_oracle(op, x)
    assert np.array_equal(expected, [4.0, 18.0])
    assert np.array_equal(forward(op, x), expected)


def test_forward_matches_oracle_on_random_inputs(rng, tiny_op):
    for _ in range(25):
        x = rng.normal(size=tiny_op.n)
        assert np.allclose(forward(tiny_op, x), forward_oracle(tiny_op, x),
                           atol=1e-12)


def test_forward_affine_when_a_zero(rng):
    op = make_operator(0.0, seed=2, n=11, k=5, stride=3)
    op.b = 0.3
    x = rng.normal(size=11)
    alpha = 2.5
    lhs = forward(op, alpha * x) - op.b
    rhs = alpha * (forward(op, x) - op.b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_quadratic_term_scales_quadratically(rng):
    # with b = 0, (F_a - F_0)(alpha x) = alpha^2 (F_a - F_0)(x)
    op_a = make_operator(3.0, seed=4, n=11, k=5, stride=3)
    op_0 = VolterraOperator(w1=op_a.w1, w2=op_a.w2, a=0.0, b=0.0,
                            stride=op_a.stride, n=op_a.n)
    x = rng.normal(size=11)
    alpha = 1.7
    quad = forward(op_a, x) - forward(op_0, x)
    quad_scaled = forward(op_a, alpha * x) - forward(op_0, alpha * x)
    assert np.allclose(quad_scaled, alpha ** 2 * quad, rtol=1e-12)


def test_forward_affine_in_a(rng, tiny_op):
    x = rng.normal(size=tiny_op.n)
    ops = []
    for a in (0.0, 1.0, 2.0):
        ops.append(VolterraOperator(w1=tiny_op.w1, w2=tiny_op.w2, a=a, b=0.0,
                                    stride=tiny_op.stride, n=tiny_op.n))
    y0, y1, y2 = (forward(o, x) for o in ops)
    assert np.allclose(y2 - y1, y1 - y0, atol=1e-12)


def test_operator_equality_is_identity():
    op, twin = make_operator(1.0, 3), make_operator(1.0, 3)
    assert op == op
    assert not op == twin  # compared without raising; content is fingerprint()
    assert op.fingerprint() == twin.fingerprint()


def test_forward_rejects_wrong_length(tiny_op):
    with pytest.raises(ShapeError):
        forward(tiny_op, np.zeros(7))


def test_forward_batched_matches_rows(rng, tiny_op):
    xb = rng.normal(size=(4, tiny_op.n))
    yb = forward(tiny_op, xb)
    for i in range(4):
        assert np.array_equal(yb[i], forward(tiny_op, xb[i]))


@pytest.mark.parametrize("n, k, s", [(53, 9, 4), (11, 5, 3), (9, 3, 1),
                                     (13, 3, 5), (10, 4, 2), (5, 5, 1)])
def test_window_gather_and_scatter_match_per_window_oracles_bitwise(rng, n, k, s):
    # overlapping (k > s), abutting, gapped (k < s) and single windows
    op = VolterraOperator(w1=rng.normal(size=k), w2=np.triu(rng.normal(size=(k, k))),
                          a=1.0, b=0.0, stride=s, n=n)
    for lead in ((), (1,), (7,), (64,)):
        x = rng.normal(size=lead + (n,))
        stacked = np.stack([x[..., i * s:i * s + k] for i in range(op.m)], axis=-2)
        windows = op._windows(x)
        assert windows.flags.c_contiguous and np.array_equal(windows, stacked)
        assert np.array_equal(windows @ op.w1, stacked @ op.w1)
        contrib = rng.normal(size=lead + (op.m, k))
        expected = np.zeros(lead + (n,))
        for i in range(op.m):
            expected[..., i * s:i * s + k] += contrib[..., i, :]
        assert np.array_equal(_scatter_windows(op, contrib, x.shape), expected)


def test_scatter_index_is_shared_per_geometry_and_row_count(rng):
    # every call's sums equal those over a freshly built index, whichever
    # row counts and operators came before it
    ops = [make_operator(1.0, seed=4), make_operator(2.0, seed=5),
           make_operator(1.0, seed=4, n=11, k=5, stride=3)]
    for op in ops:
        for rows in (3, 5, 3, 1):
            contrib = rng.normal(size=(rows, op.m, op.k))
            fresh = (np.arange(0, rows * op.n, op.n)[:, None] + op._idx.ravel()).ravel()
            expected = np.bincount(fresh, weights=contrib.ravel(), minlength=rows * op.n)
            assert (_scatter_windows(op, contrib, (rows, op.n)).tobytes()
                    == expected.tobytes())
    # built once per (n, k, stride, rows), shared and read-only
    index = _window_positions(53, 9, 4, 3)
    assert index is _window_positions(53, 9, 4, 3)
    assert not index.flags.writeable and not ops[0]._idx.flags.writeable


def einsum_quad(w2, w):
    """The quadratic form as the einsum it replaced."""
    return np.einsum("...mi,ij,...mj->...m", w, w2, w)


@pytest.mark.parametrize("block", [5, 4096])
def test_quad_form_matches_einsum_bitwise(rng, monkeypatch, block):
    # block 5 makes every batch several blocks and a ragged one; at 4096 the
    # 400-row batch (4800 windows) is one whole block and a ragged one
    monkeypatch.setattr(volterra, "_QUAD_WINDOWS", block)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    op = make_operator(2.0, seed=5)
    for lead in ((), (1,), (7,), (400,)):
        for _ in range(5):
            w = rng.normal(size=lead + (op.m, op.k)) * 10.0 ** rng.integers(-3, 4)
            special = w.copy()
            special.reshape(-1)[::3] = rng.choice(specials, size=special.reshape(-1)[::3].size)
            signed_zeros = np.where(w < 0, -0.0, w)
            for windows in (w, special, signed_zeros):
                with np.errstate(invalid="ignore"):
                    expected = einsum_quad(op.w2, windows)
                    got = _quad_form(op.w2, windows)
                assert got.shape == expected.shape
                # a NaN's sign bit follows the operand order that numpy's
                # compiled loops pick, so NaN only has to meet NaN
                nan = np.isnan(expected)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == expected[~nan].tobytes()


def test_gen_dataset_bytes_equal_the_einsum_reference(monkeypatch):
    # a 400-row split measures more windows than one _quad_form block
    made = gen_dataset(2.0, counts=(400, 9, 7), seed=12, noise_sigma=0.01)
    monkeypatch.setattr(volterra, "_quad_form", einsum_quad)
    reference = gen_dataset(2.0, counts=(400, 9, 7), seed=12, noise_sigma=0.01)
    for name in SPLITS:
        for got, expected in zip(made.splits[name], reference.splits[name]):
            assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# adjoint

def test_vjp_zero_cotangent(tiny_op, rng):
    assert not vjp(tiny_op, rng.normal(size=tiny_op.n), np.zeros(tiny_op.m)).any()


def test_vjp_linear_case_matches_assembled_matrix(rng):
    op = make_operator(0.0, seed=9, n=11, k=5, stride=3)
    basis = np.eye(op.n)
    matrix = np.stack([forward(op, e) - op.b for e in basis], axis=1)
    x = rng.normal(size=op.n)
    u = rng.normal(size=op.m)
    assert np.allclose(vjp(op, x, u), matrix.T @ u, atol=1e-12)


def test_vjp_adjoint_identity_against_fd_jvp(rng, tiny_op):
    for _ in range(50):
        x = rng.normal(size=tiny_op.n)
        u = rng.normal(size=tiny_op.m)
        delta = rng.normal(size=tiny_op.n)
        h = 1e-6
        jvp_fd = (forward(tiny_op, x + h * delta) -
                  forward(tiny_op, x - h * delta)) / (2 * h)
        lhs = float(jvp_fd @ u)
        rhs = float(delta @ vjp(tiny_op, x, u))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_vjp_adjoint_identity_against_exact_jvp(rng, tiny_op):
    for _ in range(50):
        x = rng.normal(size=tiny_op.n)
        u = rng.normal(size=tiny_op.m)
        delta = rng.normal(size=tiny_op.n)
        lhs = float(jvp_oracle(tiny_op, x, delta) @ u)
        rhs = float(delta @ vjp(tiny_op, x, u))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_vjp_linear_in_cotangent(rng, tiny_op):
    x = rng.normal(size=tiny_op.n)
    u1 = rng.normal(size=tiny_op.m)
    u2 = rng.normal(size=tiny_op.m)
    lhs = vjp(tiny_op, x, 0.6 * u1 - 2.0 * u2)
    rhs = 0.6 * vjp(tiny_op, x, u1) - 2.0 * vjp(tiny_op, x, u2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_forward_op_gradient_matches_fd(rng, tiny_op):
    x = rng.normal(size=tiny_op.n)
    u = rng.normal(size=tiny_op.m)
    xt = Tensor(x)
    with Tape() as tape:
        tape.watch(xt)
        loss = sum_all(mul(forward(tiny_op, xt), Tensor(u)))
        g = backward(loss, [xt])
    fd = fd_gradient(lambda xx: float(forward(tiny_op, xx) @ u), [x], 0)
    assert rel_error(g[xt], fd) <= 1e-5


def test_vjp_op_gradients_match_fd(rng, tiny_op):
    x = rng.normal(size=tiny_op.n)
    u = rng.normal(size=tiny_op.m)
    w = rng.normal(size=tiny_op.n)
    xt, ut = Tensor(x), Tensor(u)
    with Tape() as tape:
        tape.watch(xt, ut)
        loss = sum_all(mul(vjp(tiny_op, xt, ut), Tensor(w)))
        g = backward(loss, [xt, ut])
    fd_x = fd_gradient(lambda xx, uu: float(vjp(tiny_op, xx, uu) @ w), [x, u], 0)
    fd_u = fd_gradient(lambda xx, uu: float(vjp(tiny_op, xx, uu) @ w), [x, u], 1)
    assert rel_error(g[xt], fd_x) <= 1e-5
    assert rel_error(g[ut], fd_u) <= 1e-5


# ---------------------------------------------------------------------------
# one path per op: arrays give arrays, Tensors give Tensors, same bits

def _op_calls(op, x, u, y):
    """name -> (call with inputs wrapped by ``wrap``, the plain-array formula)."""
    return {
        "forward": (lambda wrap: forward(op, wrap(x)), _measure(op, x)),
        "vjp": (lambda wrap: vjp(op, wrap(x), wrap(u)), _pullback(op, x, u)),
        "data_grad": (lambda wrap: data_grad(op, wrap(x), wrap(y)),
                      _pullback(op, x, _measure(op, x) - y)),
    }


@pytest.mark.parametrize("geometry", [(11, 5, 3), (53, 9, 4)], ids=["tiny", "protocol"])
@pytest.mark.parametrize("batch", [(), (7,)], ids=["unbatched", "B7"])
def test_ops_give_arrays_for_arrays_and_tensors_for_tensors_bitwise(
        rng, geometry, batch):
    n, k, stride = geometry
    op = make_operator(1.5, seed=5, n=n, k=k, stride=stride)
    x = rng.normal(size=batch + (op.n,))
    u, y = rng.normal(size=(2,) + batch + (op.m,))
    for name, (call, formula) in _op_calls(op, x, u, y).items():
        out = call(lambda a: a)
        assert type(out) is np.ndarray, name
        assert out.tobytes() == formula.tobytes(), name
        out = call(Tensor)
        assert isinstance(out, Tensor) and out.tape is None, name  # untracked
        assert out.data.tobytes() == formula.tobytes(), name
    # one Tensor among array inputs is enough for a Tensor result
    assert isinstance(vjp(op, x, Tensor(u)), Tensor)
    assert isinstance(data_grad(op, x, Tensor(y)), Tensor)


def test_data_grad_rejects_wrong_length(tiny_op):
    y = np.zeros(tiny_op.m)
    for x in (np.ones(14), Tensor(np.ones(14)), np.ones((3, 14))):
        with pytest.raises(ShapeError):
            data_grad(tiny_op, x, y)


# ---------------------------------------------------------------------------
# data-consistency gradient

def test_data_grad_vanishes_at_solution(rng, tiny_op):
    x = rng.normal(size=tiny_op.n)
    y = forward(tiny_op, x)
    assert not data_grad(tiny_op, x, y).any()


def test_data_grad_matches_fd_of_half_squared_misfit(rng, tiny_op):
    x = rng.normal(size=tiny_op.n)
    y = forward(tiny_op, rng.normal(size=tiny_op.n))

    def objective(xx):
        r = forward(tiny_op, xx) - y
        return 0.5 * float(r @ r)

    fd = fd_gradient(objective, [x], 0)
    assert rel_error(data_grad(tiny_op, x, y), fd) <= 1e-6


def test_data_grad_linear_case_is_normal_equation_residual(rng):
    op = make_operator(0.0, seed=11, n=11, k=5, stride=3)
    op.b = 0.2
    basis = np.eye(op.n)
    matrix = np.stack([forward(op, e) - op.b for e in basis], axis=1)
    x = rng.normal(size=op.n)
    y = rng.normal(size=op.m)
    expected = matrix.T @ (matrix @ x - y + op.b * np.ones(op.m))
    assert np.allclose(data_grad(op, x, y), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# TV prior and datasets

def test_tv_prior_deterministic_and_centered():
    a = sample_tv_prior(53, seed=3)
    b = sample_tv_prior(53, seed=3)
    assert np.array_equal(a, b)
    assert abs(a.mean()) <= 1e-15
    assert not np.array_equal(a, sample_tv_prior(53, seed=4))


def test_tv_prior_laplace_increments():
    x = sample_tv_prior(100_001, scale=0.1, seed=0)
    increments = np.diff(x)
    # Laplace(0, s) has mean absolute deviation exactly s
    assert abs(np.abs(increments).mean() - 0.1) <= 0.01


def test_tv_prior_validates_arguments():
    with pytest.raises(ValueError):
        sample_tv_prior(1, seed=0)
    with pytest.raises(ValueError):
        sample_tv_prior(10, scale=0.0, seed=0)


def test_gen_dataset_split_sizes_and_consistency():
    ds = gen_dataset(1.0, counts=(12, 6, 5), seed=0, n=11, k=5, stride=3)
    assert ds.counts == (12, 6, 5)
    for name in ("train", "val", "test"):
        x, y = ds.splits[name]
        assert np.array_equal(y, forward(ds.operator, x))


def test_gen_dataset_no_duplicate_signals_across_splits():
    ds = gen_dataset(1.0, counts=(20, 10, 10), seed=0, n=11, k=5, stride=3)
    seen = set()
    for name in ("train", "val", "test"):
        for row in ds.splits[name][0]:
            seen.add(row.tobytes())
    assert len(seen) == 40


def test_gen_dataset_deterministic(tmp_path):
    a = gen_dataset(2.0, counts=(6, 3, 3), seed=5, n=11, k=5, stride=3)
    b = gen_dataset(2.0, counts=(6, 3, 3), seed=5, n=11, k=5, stride=3)
    for name in ("train", "val", "test"):
        assert np.array_equal(a.splits[name][0], b.splits[name][0])
        assert np.array_equal(a.splits[name][1], b.splits[name][1])


def test_gen_dataset_per_sample_seeds_are_count_independent():
    # the first rows do not depend on how many samples follow them
    small = gen_dataset(1.0, counts=(3, 2, 2), seed=7, n=11, k=5, stride=3)
    large = gen_dataset(1.0, counts=(6, 2, 2), seed=7, n=11, k=5, stride=3)
    assert np.array_equal(small.splits["train"][0],
                          large.splits["train"][0][:3])


def test_gen_dataset_noise_flag(rng):
    clean = gen_dataset(1.0, counts=(4, 2, 2), seed=1, n=11, k=5, stride=3)
    noisy = gen_dataset(1.0, counts=(4, 2, 2), seed=1, n=11, k=5, stride=3,
                        noise_sigma=0.05)
    assert np.array_equal(clean.splits["train"][0], noisy.splits["train"][0])
    assert not np.array_equal(clean.splits["train"][1], noisy.splits["train"][1])


def _walk_oracle(rng, n, scale):
    # one sample's walk on its own: concatenate, cumsum, centre
    x = np.concatenate([[0.0], np.cumsum(rng.laplace(0.0, scale, size=n - 1))])
    return x - x.mean()


@pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
def test_gen_dataset_rows_equal_per_sample_prior_bytewise(noise_sigma):
    counts, seed, scale = (40, 9, 7), 62, 0.2
    ds = gen_dataset(1.0, counts=counts, seed=seed, tv_scale=scale,
                     noise_sigma=noise_sigma)
    for si, (name, count) in enumerate(zip(SPLITS, counts)):
        x = ds.splits[name][0]
        for i in (0, count // 2, count - 1):
            key = np.random.SeedSequence([seed, si, i, 1])
            row = sample_tv_prior(53, scale, rng=np.random.default_rng(key))
            oracle = _walk_oracle(np.random.default_rng(key), 53, scale)
            assert x[i].tobytes() == row.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 62, 2**32 - 1, 2**32 + 5, 2**64 + 3,
                                  np.int64(2**40 + 9)])
def test_stream_words_equal_numpy_seed_sequence(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no uint32 wrap-around warning
        for si in range(3):
            for purpose in (1, 2):
                words = _stream_words(seed, si, 300, purpose)
                expected = [np.random.SeedSequence([seed, si, i, purpose])
                            .generate_state(4, np.uint64) for i in range(300)]
                assert words.dtype == np.uint64
                assert np.array_equal(words, expected)


def test_stream_words_reject_a_negative_seed():
    with pytest.raises(ValueError):
        np.random.SeedSequence([-1, 0, 0, 1])
    with pytest.raises(ValueError, match="non-negative"):
        _stream_words(-1, 0, 4, 1)


# sha256 of every split's x then y bytes, pinned from datasets made with one
# numpy SeedSequence per sample, so they hold the bulk seeding to numpy's own
DATASET_DIGESTS = [
    (3, 0.0, "cf174aec6adb354aa032ba0a38ba591f34a55f88a3763f3cd3652a863e36227c"),
    (3, 0.05, "334f19508ec3921f68019de9abe4a75d3b94f226a36ee94cdef1ff7adaeaa94b"),
    (2**32 + 5, 0.05,
     "224562c525ca8e08c5ae67f4be0efa74e7a35e33ef9cc39e412876e38f279501"),
]


@pytest.mark.parametrize("seed,noise_sigma,digest", DATASET_DIGESTS)
def test_gen_dataset_bytes_golden(seed, noise_sigma, digest):
    ds = gen_dataset(1.0, counts=(64, 16, 16), seed=seed, noise_sigma=noise_sigma)
    h = hashlib.sha256()
    for name in SPLITS:
        for arr in ds.splits[name]:
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
def test_gen_dataset_rejects_a_bad_noise_level(sigma):
    with pytest.raises(ValueError, match="noise_sigma"):
        gen_dataset(1.0, counts=(2, 1, 1), noise_sigma=sigma)


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_tv_prior_rejects_a_non_finite_scale(scale):
    with pytest.raises(ValueError, match="tv scale"):
        sample_tv_prior(10, scale=scale, seed=0)
    with pytest.raises(ValueError, match="tv scale"):
        gen_dataset(1.0, counts=(2, 1, 1), tv_scale=scale)


def test_interrupted_manifest_write_leaves_no_manifest(tmp_path, torn_writes):
    ds = gen_dataset(1.0, counts=(5, 3, 2), seed=9, n=11, k=5, stride=3)
    out = str(tmp_path / "ds")
    save_dataset(ds, out)
    torn_writes.add("manifest.txt")
    with pytest.raises(OSError, match="torn"):
        save_dataset(ds, out, force=True)
    assert not any(f.startswith("manifest") for f in os.listdir(out))
    with pytest.raises(FileNotFoundError):
        load_dataset(out)


def test_dataset_roundtrip_bit_exact(tmp_path):
    ds = gen_dataset(2.0, counts=(5, 3, 2), seed=9, n=11, k=5, stride=3)
    out = tmp_path / "ds"
    save_dataset(ds, str(out))
    loaded = load_dataset(str(out))
    assert loaded.operator.fingerprint() == ds.operator.fingerprint()
    for name in ("train", "val", "test"):
        for i in range(2):
            assert loaded.splits[name][i].tobytes() == ds.splits[name][i].tobytes()
    with pytest.raises(FileExistsError):
        save_dataset(ds, str(out))
    save_dataset(ds, str(out), force=True)
