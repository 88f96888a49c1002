"""Trainable building blocks, optimizer machinery, and parameter files.

Each block holds only its parameter tensors.  A convolution stack is
same-padded convolutions with a learned per-channel PReLU slope after each
hidden one and a linear output convolution.  The recurrent momentum module
is an L-layer LSTM stack whose final hidden state is mapped back to the
gradient's space; its state sizes are read off its cells' tensors.
"""

import json
import operator
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .autodiff import (Tensor, add, as_tensor, conv1d, matvec, mul, prelu,
                       sigmoid, tanh)


def he_uniform(rng, shape, fan_in):
    """Uniform draw with variance 2/fan_in."""
    lim = np.sqrt(6.0 / fan_in)
    return rng.uniform(-lim, lim, size=shape)


class Conv1dLayer:
    """One same-padded convolution: kernel (C_out, C_in, k) plus bias."""

    def __init__(self, kernel, bias):
        self.kernel = as_tensor(kernel)
        self.bias = as_tensor(bias)

    @classmethod
    def create(cls, rng, c_in, c_out, k=3, scale=1.0):
        if scale == 0:  # a zero kernel draws nothing from rng
            kernel = np.zeros((c_out, c_in, k))
        else:
            kernel = scale * he_uniform(rng, (c_out, c_in, k), fan_in=c_in * k)
        return cls(kernel, np.zeros(c_out))

    def __call__(self, x):
        return conv1d(x, self.kernel, self.bias)

    def named_params(self, prefix):
        yield f"{prefix}.kernel", self.kernel
        yield f"{prefix}.bias", self.bias


class ConvStack:
    """conv -> PReLU -> ... -> conv, with a linear (activation-free) output.

    Each hidden conv feeds a PReLU with one learned slope per channel,
    starting at 0.25.  The output conv's kernel is ``out_scale`` times a He
    draw; at the default 0 a freshly built stack is the zero map, which
    keeps residually wired reconstructions at their starting point until
    training moves them.
    """

    def __init__(self, convs, slopes):
        self.convs = convs
        self.slopes = slopes  # one per hidden conv: len(convs) - 1

    @classmethod
    def create(cls, rng, channels, k=3, out_scale=0.0):
        last = len(channels) - 2
        convs = [Conv1dLayer.create(rng, c_in, c_out, k=k,
                                    scale=out_scale if i == last else 1.0)
                 for i, (c_in, c_out) in enumerate(zip(channels[:-1], channels[1:]))]
        return cls(convs, [Tensor(np.full(c, 0.25)) for c in channels[1:-1]])

    def __call__(self, x):
        for conv, slope in zip(self.convs, self.slopes):
            x = prelu(conv(x), slope)
        return self.convs[-1](x)

    def named_params(self, prefix):
        for i, conv in enumerate(self.convs):
            yield from conv.named_params(f"{prefix}.conv{i}")
        for i, slope in enumerate(self.slopes):
            yield f"{prefix}.act{i}.slope", slope


# ---------------------------------------------------------------------------
# LSTM stack

class LstmCell:
    """One LSTM layer: gated update of a hidden/cell state pair.

    Weight naming follows the gate it feeds: w_h* act on the hidden state,
    w_g* on the incoming signal; c/f/i/o are the candidate, forget, input
    and output gates.
    """

    FIELDS = ("w_hc", "w_gc", "b_c", "w_hf", "w_gf", "b_f",
              "w_hi", "w_gi", "b_i", "w_ho", "w_go", "b_o")

    def __init__(self, **tensors):
        for name in self.FIELDS:
            setattr(self, name, tensors[name])

    @classmethod
    def create(cls, rng, input_size, hidden_size):
        # recurrent weights use the customary U(-1/sqrt(n), 1/sqrt(n)) scale;
        # hotter draws saturate the gates on unnormalized gradient inputs.
        # The forget gate's bias starts at 1, so the cell keeps its state.
        n, d = hidden_size, input_size
        lim = 1.0 / np.sqrt(n)
        t = {}
        for gate in "cfio":
            t[f"w_h{gate}"] = Tensor(rng.uniform(-lim, lim, size=(n, n)))
            t[f"w_g{gate}"] = Tensor(rng.uniform(-lim, lim, size=(n, d)))
            t[f"b_{gate}"] = Tensor(np.ones(n) if gate == "f" else np.zeros(n))
        return cls(**t)

    def step(self, z_in, h, c):
        """Advance one time step; returns (h', c') with z_out = h'."""
        cand = tanh(add(add(matvec(self.w_hc, h), matvec(self.w_gc, z_in)), self.b_c))
        f = sigmoid(add(add(matvec(self.w_hf, h), matvec(self.w_gf, z_in)), self.b_f))
        i = sigmoid(add(add(matvec(self.w_hi, h), matvec(self.w_gi, z_in)), self.b_i))
        o = sigmoid(add(add(matvec(self.w_ho, h), matvec(self.w_go, z_in)), self.b_o))
        c_new = add(mul(f, c), mul(i, cand))
        h_new = mul(o, tanh(c_new))
        return h_new, c_new

    def named_params(self, prefix):
        for name in self.FIELDS:
            yield f"{prefix}.{name}", getattr(self, name)


class LstmStack:
    """L chained LSTM cells plus the map from hidden space back to signals.

    The stack consumes one gradient vector per call and carries (h, c) per
    layer between calls; fresh state is all zeros.  It is the rma momentum
    module: ``step`` is the momentum-module interface of ``unrolling``.
    """

    def __init__(self, cells, w_hg, b_g):
        self.cells = cells
        self.w_hg = w_hg
        self.b_g = b_g

    @classmethod
    def create(cls, rng, input_size, hidden_size, layers=1):
        cells = [LstmCell.create(rng,
                                 input_size if l == 0 else hidden_size,
                                 hidden_size)
                 for l in range(layers)]
        # Output map starts as the transpose of the composed candidate-gate
        # input maps, so near zero state the stack emits approximately a
        # (small positive) multiple of its input: the learned velocity begins
        # as a pass-through of the gradient and training layers corrections
        # on top, instead of first having to rediscover the gradient itself.
        chain = cells[0].w_gc.data
        for cell in cells[1:]:
            chain = cell.w_gc.data @ chain
        w_hg = Tensor(chain.T.copy())
        b_g = Tensor(np.zeros(input_size))
        return cls(cells, w_hg, b_g)

    def initial_state(self, batch=None):
        lead = () if batch is None else (batch,)
        return [(Tensor(np.zeros(lead + cell.b_c.data.shape)),
                 Tensor(np.zeros(lead + cell.b_c.data.shape)))
                for cell in self.cells]

    def __call__(self, g, state):
        """Map a gradient and the carried state to (velocity, new state)."""
        if len(state) != len(self.cells):
            raise ValueError(
                f"state has {len(state)} layers, stack has {len(self.cells)}")
        z = g
        new_state = []
        for cell, (h, c) in zip(self.cells, state):
            h, c = cell.step(z, h, c)
            new_state.append((h, c))
            z = h
        v = add(matvec(self.w_hg, z), self.b_g)
        return v, new_state

    def step(self, state, g):
        """(velocity, new state) for gradient g; ``None`` is the zero state."""
        if state is None:
            batch = g.data.shape[0] if g.data.ndim == 2 else None
            state = self.initial_state(batch)
        return self(g, state)

    def named_params(self, prefix):
        for l, cell in enumerate(self.cells):
            yield from cell.named_params(f"{prefix}.layer{l}")
        yield f"{prefix}.w_hg", self.w_hg
        yield f"{prefix}.b_g", self.b_g


# ---------------------------------------------------------------------------
# optimizer, schedule, clipping

class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    The moments ``m`` and ``v`` are single float64 vectors over all
    parameters, in list order.  Each step reads every ``p.data`` afresh, runs
    the elementwise update once over the concatenated values and rebinds each
    ``p.data`` to a view of one new array, so arrays that held the old values
    are never written.
    """

    def __init__(self, params, beta1=0.9, beta2=0.99, eps=1e-8):
        self.params = list(params)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._edges = np.cumsum([0, *(p.data.size for p in self.params)])
        self.m = np.zeros(self._edges[-1])
        self.v = np.zeros(self._edges[-1])

    def step(self, grads, lr):
        """Apply one update; ``grads`` aligns with the parameter list.

        Every gradient is checked before any state changes.
        """
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        for p, g in zip(self.params, grads):
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param {p.data.shape}")
        g = np.concatenate([np.zeros(0), *(x.ravel() for x in grads)])
        data = np.concatenate([np.zeros(0), *(p.data.ravel() for p in self.params)])
        if data.size != self.m.size:
            raise ValueError("parameter sizes changed since the optimizer was made")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        data = data - lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)
        for p, lo, hi in zip(self.params, self._edges[:-1], self._edges[1:]):
            p.data = data[lo:hi].reshape(p.data.shape)


@dataclass
class CosineSchedule:
    """Cosine annealing from lr0 at step 0 to zero at step t_max."""

    lr0: float
    t_max: int

    def rate(self, t):
        if t >= self.t_max:
            return 0.0
        return float(0.5 * self.lr0 * (1.0 + np.cos(np.pi * t / self.t_max)))


def global_norm(grads):
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads)))


def clip_global_norm(grads, max_norm=1.0):
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns (clipped gradients, pre-clip norm).
    """
    norm = global_norm(grads)
    if norm > max_norm:
        factor = max_norm / norm
        grads = [g * factor for g in grads]
    return grads, norm


# ---------------------------------------------------------------------------
# parameter files

_MAGIC = "dunets-params-v1"


def save_params(path, named_arrays, meta=None):
    """Write named float64 arrays: a JSON header line, then raw payload.

    The header records (name, shape, offset) per tensor; the payload is the
    little-endian float64 bytes in header order.  Round-trips bit-exactly.
    The file is replaced whole, so an interrupted save keeps the old one.
    """
    entries = []
    chunks = []
    offset = 0
    for name, arr in named_arrays:
        data = np.asarray(getattr(arr, "data", arr), dtype="<f8", order="C")
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        raw = data.tobytes()
        chunks.append(raw)
        offset += len(raw)
    header = {"format": _MAGIC, "meta": meta or {}, "tensors": entries}
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for raw in chunks:
            fh.write(raw)


def load_params(path):
    """Read a parameter file; returns (dict name -> array, meta dict)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:  # not UTF-8 or JSON, not an object, no (name, shape, offset) list,
        # or an offset or dimension that is not an integer
        header = json.loads(header_line.decode("utf-8"))
        tensors = [(e["name"], tuple(map(operator.index, e["shape"])),
                    operator.index(e["offset"])) for e in header["tensors"]]
        if any(d < 0 for _, shape, _ in tensors for d in shape):
            raise ValueError("negative dimension")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a parameter file ({exc!r})") from None
    if header.get("format") != _MAGIC:
        raise ValueError(f"{path}: not a parameter file")
    arrays = {}
    for name, shape, start in tensors:
        count = int(np.prod(shape)) if shape else 1
        if not 0 <= start <= len(payload) - 8 * count:
            raise ValueError(f"{path}: payload too short for tensor {name!r}")
        arr = np.frombuffer(payload, dtype="<f8", count=count,
                            offset=start).reshape(shape)
        arrays[name] = arr.copy()
    return arrays, header.get("meta", {})
