"""Nonlinear windowed deconvolution: operator, adjoint, and datasets.

The measurement map slides a window of size k with stride s over the
signal and emits, per window w,

    y_i = a * w' W2 w + w1' w + b

with an upper-triangular second-order kernel W2.  Both the map and its
Jacobian-adjoint participate in reverse-mode graphs so reconstruction
networks can be trained end-to-end through them.
"""

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor, record_op, sub


@dataclass
class VolterraOperator:
    """Windowed quadratic measurement map of a length-n signal."""

    w1: np.ndarray          # (k,) first-order kernel
    w2: np.ndarray          # (k, k) second-order kernel, zero below diagonal
    a: float                # nonlinearity coefficient
    b: float                # output bias
    stride: int
    n: int                  # signal length
    seed: int | None = None  # generator seed, if seed-constructed
    _w2sym: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        k = self.w1.shape[0]
        if self.w2.shape != (k, k):
            raise ValueError(f"second-order kernel must be ({k},{k}), got {self.w2.shape}")
        if np.any(np.tril(self.w2, -1) != 0.0):
            raise ValueError("second-order kernel must be upper-triangular")
        if (self.n - k) % self.stride != 0:
            raise ValueError(
                f"window size {k} and stride {self.stride} do not tile length {self.n}")
        self._w2sym = self.w2 + self.w2.T

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
        """View of x as (..., m, k) windows at starts {0, s, 2s, ...}."""
        return np.stack([x[..., i * self.stride:i * self.stride + self.k]
                         for i in range(self.m)], axis=-2)


def make_operator(a, seed, n=53, k=9, stride=4):
    """Seeded operator: w1 ~ N(0, 1/k), upper-triangular W2 ~ N(0, 1/k^2)."""
    if a < 0:
        raise ValueError("nonlinearity coefficient must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x0b]))
    w1 = rng.normal(0.0, 1.0 / np.sqrt(k), size=k)
    w2 = np.triu(rng.normal(0.0, 1.0 / k, size=(k, k)))
    return VolterraOperator(w1=w1, w2=w2, a=float(a), b=0.0, stride=stride,
                            n=n, seed=int(seed))


def _measure(op, x):
    """y for plain arrays x of shape (n,) or (B, n)."""
    w = op._windows(x)
    quad = np.einsum("...mi,ij,...mj->...m", w, op.w2, w)
    lin = w @ op.w1
    return op.a * quad + lin + op.b


def _window_grads(op, x):
    """Per-window gradient of y_i w.r.t. its window: a (W2+W2') w + w1."""
    w = op._windows(x)
    return op.a * (w @ op._w2sym) + op.w1


def _scatter_windows(op, contrib, out_shape):
    """Sum per-window (..., m, k) contributions back onto the signal axis."""
    g = np.zeros(out_shape)
    for i in range(op.m):
        start = i * op.stride
        g[..., start:start + op.k] += contrib[..., i, :]
    return g


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
    """Apply the measurement map; differentiable when x is a tracked Tensor."""
    if not isinstance(x, Tensor):
        x = np.asarray(x, dtype=np.float64)
        _check_signal(op, x)
        return _measure(op, x)
    _check_signal(op, x.data)
    x_data = x.data

    def pull(g):
        return (_pullback(op, x_data, g),)

    return record_op(_measure(op, x_data), (x,), pull)


def vjp(op, x, u):
    """Jacobian-adjoint J(x)' u; differentiable in both x and u.

    The output is linear in u and affine in x, so its own backward rules are
    exact window algebra: the u-gradient dots upstream window slices with the
    window gradients, and the x-gradient routes them back through a (W2+W2').
    """
    if not isinstance(x, Tensor) and not isinstance(u, Tensor):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        _check_signal(op, x)
        _check_obs(op, u)
        return _pullback(op, x, u)
    xt = x if isinstance(x, Tensor) else Tensor(x)
    ut = u if isinstance(u, Tensor) else Tensor(u)
    _check_signal(op, xt.data)
    _check_obs(op, ut.data)
    if xt.data.ndim != ut.data.ndim:
        raise ShapeError(
            f"x and u must agree on batching: {xt.data.shape} vs {ut.data.shape}")
    x_data, u_data = xt.data, ut.data
    wgrads = _window_grads(op, x_data)

    def pull(g):
        g_windows = np.stack(
            [g[..., i * op.stride:i * op.stride + op.k] for i in range(op.m)],
            axis=-2)
        g_u = np.einsum("...mk,...mk->...m", g_windows, wgrads)
        contrib = (op.a * u_data[..., :, None]) * (g_windows @ op._w2sym)
        g_x = _scatter_windows(op, contrib, x_data.shape)
        return g_x, g_u

    out = _scatter_windows(op, u_data[..., :, None] * wgrads, x_data.shape)
    return record_op(out, (xt, ut), pull)


def data_grad(op, x, y_obs):
    """Gradient of the data-consistency term 0.5 * ||F(x) - y||^2 at x."""
    if isinstance(x, Tensor):
        residual = sub(forward(op, x), y_obs if isinstance(y_obs, Tensor) else Tensor(y_obs))
        return vjp(op, x, residual)
    y_obs = np.asarray(y_obs, dtype=np.float64)
    return _pullback(op, np.asarray(x, dtype=np.float64), _measure(op, x) - y_obs)


# ---------------------------------------------------------------------------
# data generation

def sample_tv_prior(n, scale=0.1, seed=None, rng=None):
    """Piecewise-constant-favoring draw: a mean-centered Laplace random walk."""
    if n < 2:
        raise ValueError("need at least two grid points")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    steps = rng.laplace(0.0, scale, size=n - 1)
    x = np.concatenate([[0.0], np.cumsum(steps)])
    return x - x.mean()


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


def _sample_rng(seed, split_index, sample_index, purpose):
    # Per-sample streams keyed by position, so generation order or worker
    # fan-out cannot change the dataset.
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), split_index, sample_index, purpose]))


def gen_dataset(a, counts=(10000, 1000, 1000), seed=0, n=53, k=9, stride=4,
                tv_scale=0.1, noise_sigma=0.0):
    """Draw signals from the TV prior and record their measurements."""
    if len(counts) != 3 or any(c <= 0 for c in counts):
        raise ValueError("counts must be three positive split sizes")
    op = make_operator(a, seed=seed, n=n, k=k, stride=stride)
    splits = {}
    for si, (name, count) in enumerate(zip(SPLITS, counts)):
        x = np.empty((count, n))
        for i in range(count):
            x[i] = sample_tv_prior(n, scale=tv_scale,
                                   rng=_sample_rng(seed, si, i, 1))
        y = _measure(op, x)
        if noise_sigma > 0.0:
            for i in range(count):
                y[i] += _sample_rng(seed, si, i, 2).normal(0.0, noise_sigma, size=op.m)
        splits[name] = (x, y)
    return PairedDataset(operator=op, splits=splits, seed=int(seed),
                         tv_scale=tv_scale, noise_sigma=noise_sigma)


def save_dataset(ds, out_dir, force=False):
    """Persist a dataset: key=value manifest plus raw little-endian arrays."""
    manifest_path = os.path.join(out_dir, "manifest.txt")
    if os.path.exists(manifest_path) and not force:
        raise FileExistsError(f"{out_dir} already holds a dataset (use force)")
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"{key}={value}" for key, value in ds.manifest().items()]
    with open(manifest_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for name in SPLITS:
        x, y = ds.splits[name]
        for tag, arr in (("x", x), ("y", y)):
            raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            with open(os.path.join(out_dir, f"{name}_{tag}.f64"), "wb") as fh:
                fh.write(raw)


def load_dataset(in_dir):
    """Reload a dataset directory, verifying the operator fingerprint."""
    manifest = {}
    with open(os.path.join(in_dir, "manifest.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                manifest[key] = value
    n, m = int(manifest["n"]), int(manifest["m"])
    op = make_operator(float(manifest["a"]), seed=int(manifest["op_seed"]),
                       n=n, k=int(manifest["k"]), stride=int(manifest["s"]))
    if op.fingerprint() != manifest["op_fingerprint"]:
        raise ValueError(f"{in_dir}: operator fingerprint mismatch")
    counts = [int(c) for c in manifest["counts"].split(",")]
    splits = {}
    for name, count in zip(SPLITS, counts):
        arrays = []
        for tag, width in (("x", n), ("y", m)):
            with open(os.path.join(in_dir, f"{name}_{tag}.f64"), "rb") as fh:
                raw = fh.read()
            arrays.append(np.frombuffer(raw, dtype="<f8").reshape(count, width).copy())
        splits[name] = tuple(arrays)
    return PairedDataset(operator=op, splits=splits,
                         seed=int(manifest["data_seed"]),
                         tv_scale=float(manifest["tv_scale"]),
                         noise_sigma=float(manifest["noise_sigma"]))
