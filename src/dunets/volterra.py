"""Nonlinear windowed deconvolution: operator, adjoint, and datasets.

The measurement map slides a window of size k with stride s over the
signal and emits, per window w,

    y_i = a * w' W2 w + w1' w + b

with an upper-triangular second-order kernel W2.  Both the map and its
Jacobian-adjoint participate in reverse-mode graphs so reconstruction
networks can be trained end-to-end through them.
"""

import functools
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .atomic import atomic_write
from .autodiff import ShapeError, Tensor, as_tensor, record_op, sub


@dataclass(eq=False)
class VolterraOperator:
    """Windowed quadratic measurement map of a length-n signal.

    ``==`` is identity; ``fingerprint()`` compares content.
    """

    w1: np.ndarray          # (k,) first-order kernel
    w2: np.ndarray          # (k, k) second-order kernel, zero below diagonal
    a: float                # nonlinearity coefficient
    b: float                # output bias
    stride: int
    n: int                  # signal length
    seed: int | None = None  # generator seed, if seed-constructed
    _w2sym: np.ndarray = field(init=False, repr=False)
    _idx: np.ndarray = field(init=False, repr=False)  # (m, k) window positions

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        k = self.w1.shape[0]
        if self.w2.shape != (k, k):
            raise ValueError(f"second-order kernel must be ({k},{k}), got {self.w2.shape}")
        if np.any(np.tril(self.w2, -1) != 0.0):
            raise ValueError("second-order kernel must be upper-triangular")
        _check_geometry(self.n, k, self.stride)
        if not 0 <= self.a < np.inf or not np.isfinite(self.b):  # NaN fails too
            raise ValueError("nonlinearity coefficient must be finite and non-negative "
                             f"and the output bias finite, got a={self.a}, b={self.b}")
        self._w2sym = self.w2 + self.w2.T
        self._idx = _window_positions(self.n, k, self.stride, 1).reshape(self.m, k)

    @property
    def k(self):
        return self.w1.shape[0]

    @property
    def m(self):
        return (self.n - self.k) // self.stride + 1

    def fingerprint(self):
        """Content hash of everything that determines the measurement map."""
        h = hashlib.sha256()
        h.update(f"n={self.n};k={self.k};s={self.stride};a={self.a!r};b={self.b!r};".encode())
        h.update(np.ascontiguousarray(self.w1, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(self.w2, dtype="<f8").tobytes())
        return h.hexdigest()[:16]

    def _windows(self, x):
        """Copy of x as (..., m, k) windows at starts {0, s, 2s, ...}.

        The copy is C-ordered whatever x's layout, because the products
        taken of it round differently in another memory order.
        """
        return np.take(x, self._idx, axis=-1)


def _check_geometry(n, k, stride):
    """Raise unless windows of size k at a positive stride tile a length-n signal."""
    if stride < 1 or not 1 <= k <= n:
        raise ValueError(f"need stride >= 1 and 1 <= window size k <= signal length n, "
                         f"got n={n}, k={k}, stride={stride}")
    if (n - k) % stride != 0:
        raise ValueError(f"window size {k} and stride {stride} do not tile length {n}")


@functools.lru_cache(maxsize=8)
def _window_positions(n, k, stride, rows):
    """The flat signal position of every (row, window, tap) of ``rows`` signals.

    Read-only, and shared by every operator of one geometry rather than
    kept per operator, because an evaluation loads one operator per model
    and every copy would stay allocated.
    """
    m = (n - k) // stride + 1
    taps = np.arange(m)[:, None] * stride + np.arange(k)
    index = (np.arange(0, rows * n, n)[:, None] + taps.ravel()).ravel()
    index.flags.writeable = False
    return index


def make_operator(a, seed, n=53, k=9, stride=4):
    """Seeded operator: w1 ~ N(0, 1/k), upper-triangular W2 ~ N(0, 1/k^2)."""
    _check_geometry(n, k, stride)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x0b]))
    w1 = rng.normal(0.0, 1.0 / np.sqrt(k), size=k)
    w2 = np.triu(rng.normal(0.0, 1.0 / k, size=(k, k)))
    return VolterraOperator(w1=w1, w2=w2, a=float(a), b=0.0, stride=stride,
                            n=n, seed=int(seed))


# Windows per block of ``_quad_form``: its (k, k, windows) products then take
# 2.6 MB at k = 9, whatever the number of rows measured.
_QUAD_WINDOWS = 4096


def _quad_form(w2, w):
    """w' W2 w for each (..., k) window of ``w``, rounded as an einsum.

    ``einsum("...mi,ij,...mj->...m")`` adds the terms (w_i·W_ij)·w_j one at
    a time over (i, j) in C order, starting from 0.0.  Here each block of
    windows forms all k·k terms at once and adds their rows in that order
    (``np.add.reduce`` over the leading axis), so every window gets the
    einsum's bits, a NaN's sign aside, from a few long numpy calls.
    """
    k = w2.shape[0]
    flat = w.reshape(-1, k)
    out = np.empty(len(flat))
    for lo in range(0, len(flat), _QUAD_WINDOWS):
        block = flat[lo:lo + _QUAD_WINDOWS].T.copy()  # (k, windows)
        terms = w2[:, :, None] * block[:, None, :]
        terms *= block
        np.add.reduce(terms.reshape(k * k, -1), axis=0, initial=0.0,
                      out=out[lo:lo + _QUAD_WINDOWS])
    return out.reshape(w.shape[:-1])


def _measure(op, x):
    """y for plain arrays x of shape (n,) or (B, n)."""
    w = op._windows(x)
    lin = w @ op.w1
    return op.a * _quad_form(op.w2, w) + lin + op.b


def _window_grads(op, x):
    """Per-window gradient of y_i w.r.t. its window: a (W2+W2') w + w1."""
    w = op._windows(x)
    return op.a * (w @ op._w2sym) + op.w1


def _scatter_windows(op, contrib, out_shape):
    """Sum per-window (..., m, k) contributions back onto the signal axis."""
    # bincount adds its weights in input order, so each position sums its
    # windows in ascending i, starting from 0.0, as a per-window loop does;
    # positions no window covers (stride > k) stay 0
    rows = contrib.size // op._idx.size
    index = _window_positions(op.n, op.k, op.stride, rows)
    g = np.bincount(index, weights=contrib.ravel(), minlength=rows * op.n)
    return g.reshape(out_shape)


def _pullback(op, x, u):
    """J(x)' u for plain arrays: scatter u_i-scaled window gradients."""
    contrib = u[..., :, None] * _window_grads(op, x)
    return _scatter_windows(op, contrib, x.shape)


def _check_signal(op, x, name="x"):
    if x.ndim not in (1, 2) or x.shape[-1] != op.n:
        raise ShapeError(f"{name} must have length {op.n}, got shape {x.shape}")


def _check_obs(op, u, name="u"):
    if u.ndim not in (1, 2) or u.shape[-1] != op.m:
        raise ShapeError(f"{name} must have length {op.m}, got shape {u.shape}")


def forward(op, x):
    """Apply the measurement map: an array for arrays, else a Tensor.

    Differentiable when x is a tracked Tensor.
    """
    xt = as_tensor(x)
    _check_signal(op, xt.data)
    x_data = xt.data

    def pull(g):
        return (_pullback(op, x_data, g),)

    out = record_op(_measure(op, x_data), (xt,), pull)
    return out if isinstance(x, Tensor) else out.data


def vjp(op, x, u):
    """Jacobian-adjoint J(x)' u: an array for arrays, else a Tensor.

    Differentiable in both x and u.  The output is linear in u and affine in
    x, so its own backward rules are exact window algebra: the u-gradient
    dots upstream window slices with the window gradients, and the
    x-gradient routes them back through a (W2+W2').
    """
    xt, ut = as_tensor(x), as_tensor(u)
    _check_signal(op, xt.data)
    _check_obs(op, ut.data)
    if xt.data.ndim != ut.data.ndim:
        raise ShapeError(
            f"x and u must agree on batching: {xt.data.shape} vs {ut.data.shape}")
    x_data, u_data = xt.data, ut.data
    wgrads = _window_grads(op, x_data)

    def pull(g):
        g_windows = op._windows(g)
        g_u = np.einsum("...mk,...mk->...m", g_windows, wgrads)
        contrib = (op.a * u_data[..., :, None]) * (g_windows @ op._w2sym)
        g_x = _scatter_windows(op, contrib, x_data.shape)
        return g_x, g_u

    out = _scatter_windows(op, u_data[..., :, None] * wgrads, x_data.shape)
    out = record_op(out, (xt, ut), pull)
    return out if isinstance(x, Tensor) or isinstance(u, Tensor) else out.data


def data_grad(op, x, y_obs):
    """Gradient of 0.5 * ||F(x) - y||^2 at x: an array for arrays, else a Tensor."""
    xt = as_tensor(x)
    out = vjp(op, xt, sub(forward(op, xt), y_obs))
    return out if isinstance(x, Tensor) or isinstance(y_obs, Tensor) else out.data


# ---------------------------------------------------------------------------
# data generation

def _tv_walks(n, scale, count, rngs):
    """``count`` mean-centered Laplace random walks of length n, as rows.

    Row i starts at 0 and takes n-1 Laplace steps drawn from the i-th
    generator that ``rngs`` yields (in a dataset, sample i's own stream from
    ``_sample_rngs``); the cumsum and the centring run once over all rows.
    """
    if n < 2:
        raise ValueError("need at least two grid points")
    if not 0.0 < scale < np.inf:
        raise ValueError(f"tv scale must be finite and positive, got {scale}")
    x = np.empty((count, n))
    x[:, 0] = 0.0
    for row, rng in zip(x, rngs):
        row[1:] = rng.laplace(0.0, scale, size=n - 1)
    np.cumsum(x[:, 1:], axis=1, out=x[:, 1:])
    x -= x.mean(axis=1, keepdims=True)
    return x


def sample_tv_prior(n, scale=0.1, seed=None, rng=None):
    """Piecewise-constant-favoring draw: a mean-centered Laplace random walk."""
    if rng is None:
        rng = np.random.default_rng(seed)
    return _tv_walks(n, scale, 1, [rng])[0]


SPLITS = ("train", "val", "test")


@dataclass
class PairedDataset:
    """Signal/observation pairs split into train/val/test."""

    operator: VolterraOperator
    splits: dict            # name -> (x array (count, n), y array (count, m))
    seed: int
    tv_scale: float
    noise_sigma: float

    @property
    def counts(self):
        return tuple(self.splits[s][0].shape[0] for s in SPLITS)

    def manifest(self):
        op = self.operator
        return {
            "n": op.n, "m": op.m, "k": op.k, "s": op.stride,
            "a": op.a, "b": op.b,
            "op_seed": op.seed, "op_fingerprint": op.fingerprint(),
            "data_seed": self.seed, "tv_scale": self.tv_scale,
            "noise_sigma": self.noise_sigma,
            "counts": ",".join(str(c) for c in self.counts),
        }


# numpy's SeedSequence hash constants (fixed by NEP 19), for a pool of four
# 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(init, mult):
    """numpy's SeedSequence word hash, on uint32 arrays.

    Each call xors in the running hash constant, steps it (a Python int
    masked to 32 bits) and multiplies by it; uint32 arrays wrap silently
    where a uint32 scalar would warn.
    """
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _stream_words(seed, split_index, count, purpose):
    """Row i: ``SeedSequence([seed, split_index, i, purpose])``'s PCG64 seed.

    That is its ``generate_state(4, np.uint64)``, for every i < count at
    once: numpy's entropy mixing into a pool of four words, then its output
    hash, each step one numpy call over all samples.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    # entropy words: the seed's 32-bit words, least significant first, as
    # numpy splits an int, then split_index, i and purpose, one word each
    seed_words = [seed >> shift & _MASK32
                  for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(count, w, dtype=np.uint32) for w in seed_words + [split_index]]
    entropy += [np.arange(count, dtype=np.uint32),
                np.full(count, purpose, dtype=np.uint32)]

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> np.uint32(16))

    # there are at least four entropy words, so they fill the pool; any
    # more (a seed of 2**32 or over) mix into every pool word in turn
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hashmix(_INIT_B, _MULT_B)
    state = np.stack([out(pool[dst % 4]) for dst in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StreamSeed(ISeedSequence):
    """Seed material whose ``generate_state`` returns PCG64's precomputed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _sample_rngs(seed, split_index, count, purpose):
    """Generator i < count draws as ``default_rng(SeedSequence([seed,
    split_index, i, purpose]))``, seeded from ``_stream_words``' row i."""
    for words in _stream_words(seed, split_index, count, purpose):
        yield np.random.Generator(np.random.PCG64(_StreamSeed(words)))


def gen_dataset(a, counts=(10000, 1000, 1000), seed=0, n=53, k=9, stride=4,
                tv_scale=0.1, noise_sigma=0.0):
    """Draw signals from the TV prior and record their measurements.

    Sample i of split si draws its walk from the stream
    ``default_rng(SeedSequence([seed, si, i, 1]))`` and, when noise_sigma > 0,
    its observation noise from ``[seed, si, i, 2]``.  Streams are keyed by
    position, so a split's first rows do not depend on its size; a split's
    stream seeds are computed together (``_sample_rngs``).
    """
    if len(counts) != 3 or any(c <= 0 for c in counts):
        raise ValueError("counts must be three positive split sizes")
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(
            f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if seed < 0:
        raise ValueError(f"data seed must be non-negative, got {seed}")
    op = make_operator(a, seed=seed, n=n, k=k, stride=stride)
    splits = {}
    for si, (name, count) in enumerate(zip(SPLITS, counts)):
        x = _tv_walks(n, tv_scale, count, _sample_rngs(seed, si, count, 1))
        y = _measure(op, x)
        if noise_sigma > 0.0:
            for row, rng in zip(y, _sample_rngs(seed, si, count, 2)):
                row += rng.normal(0.0, noise_sigma, size=op.m)
        splits[name] = (x, y)
    return PairedDataset(operator=op, splits=splits, seed=int(seed),
                         tv_scale=tv_scale, noise_sigma=noise_sigma)


def save_dataset(ds, out_dir, force=False):
    """Persist a dataset: raw little-endian arrays plus a key=value manifest.

    A present manifest marks a finished dataset, so it is removed first and
    written last, whole (``atomic_write``): an interrupted write leaves no
    manifest over missing or truncated arrays.
    """
    manifest_path = os.path.join(out_dir, "manifest.txt")
    if os.path.exists(manifest_path):
        if not force:
            raise FileExistsError(f"{out_dir} already holds a dataset (use force)")
        os.remove(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    for name in SPLITS:
        x, y = ds.splits[name]
        for tag, arr in (("x", x), ("y", y)):
            raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            with open(os.path.join(out_dir, f"{name}_{tag}.f64"), "wb") as fh:
                fh.write(raw)
    lines = [f"{key}={value}" for key, value in ds.manifest().items()]
    with atomic_write(manifest_path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(in_dir):
    """Reload a dataset directory, verifying the operator fingerprint."""
    path = os.path.join(in_dir, "manifest.txt")
    manifest = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                manifest[key] = value
    missing = [key for key in ("n", "m", "k", "s", "a", "op_seed", "op_fingerprint",
                               "counts", "data_seed", "tv_scale", "noise_sigma")
               if key not in manifest]
    if missing:
        raise ValueError(f"{path}: manifest lacks key {missing[0]!r}")
    n, m = int(manifest["n"]), int(manifest["m"])
    op = make_operator(float(manifest["a"]), seed=int(manifest["op_seed"]),
                       n=n, k=int(manifest["k"]), stride=int(manifest["s"]))
    if op.fingerprint() != manifest["op_fingerprint"]:
        raise ValueError(f"{in_dir}: operator fingerprint mismatch")
    counts = manifest["counts"].split(",")
    if len(counts) != 3 or not all(c.isdecimal() and int(c) > 0 for c in counts):
        raise ValueError(f"{path}: counts must be three positive integers, "
                         f"got {manifest['counts']!r}")
    counts = [int(c) for c in counts]
    splits = {}
    for name, count in zip(SPLITS, counts):
        arrays = []
        for tag, width in (("x", n), ("y", m)):
            with open(os.path.join(in_dir, f"{name}_{tag}.f64"), "rb") as fh:
                raw = fh.read()
            if len(raw) != 8 * count * width:
                raise ValueError(f"{fh.name}: {len(raw)} bytes, but the manifest's "
                                 f"counts need {8 * count * width}")
            arrays.append(np.frombuffer(raw, dtype="<f8").reshape(count, width).copy())
        splits[name] = tuple(arrays)
    return PairedDataset(operator=op, splits=splits,
                         seed=int(manifest["data_seed"]),
                         tv_scale=float(manifest["tv_scale"]),
                         noise_sigma=float(manifest["noise_sigma"]))
