"""Unrolled reconstruction networks over the windowed-quadratic operator.

Three iteration schemes -- proximal-gradient style with per-iteration
weights (lpgd), the same with one shared weight set (lpgdsw), and a
primal-dual scheme with stacked states (lpd) -- each combinable with a
momentum mode: none, an explicit velocity recursion (ma), or a learned
LSTM velocity (rma).

All update blocks are residually wired, and every block that writes to
the iterate has a zero-initialized output layer, so a freshly built model
reproduces its zero initialization exactly; training bends the iterates
away from it.  Dual blocks keep live output layers (see build).
"""

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import (Tensor, add, as_tensor, concat_channels, reshape,
                       scale, slice_channels, sub)
from .layers import Conv1dLayer, ConvStack, LstmStack, load_params, save_params
from .volterra import VolterraOperator, data_grad, forward, vjp

VARIANTS = ("lpgd", "lpgdsw", "lpd")
MOMENTA = ("none", "ma", "rma")


def default_unroll(variant, momentum):
    """Unroll counts chosen so momentum variants stay parameter-comparable."""
    if variant == "lpgd":
        return 20 if momentum == "rma" else 43
    if variant == "lpgdsw":
        return 20
    if variant == "lpd":
        return 10 if momentum == "rma" else 22
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Every hyperparameter that fixes a model's architecture and its init.

    These fields are the model's checkpoint manifest.  ``unroll=None``
    resolves to the variant's default unroll count.
    """

    variant: str
    momentum: str
    unroll: int | None = None
    n_primal: int = 5
    n_dual: int = 5
    width: int = 32
    kernel: int = 3
    lstm_layers: int = 1
    lstm_hidden: int = 50
    gamma: float = 0.9
    eta: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.momentum not in MOMENTA:
            raise ValueError(
                f"momentum must be one of {MOMENTA}, got {self.momentum!r}")
        if self.unroll is None:
            object.__setattr__(self, "unroll",
                               default_unroll(self.variant, self.momentum))
        if self.unroll < 0:
            raise ValueError("unroll count must be non-negative")
        sizes = ("n_primal", "n_dual", "width", "kernel", "lstm_layers",
                 "lstm_hidden")
        if any(getattr(self, f) < 1 for f in sizes) or self.kernel % 2 == 0:
            raise ValueError("sizes must be positive and the kernel odd, got "
                             + ", ".join(f"{f}={getattr(self, f)}" for f in sizes))
        if not (np.isfinite(self.gamma) and np.isfinite(self.eta)):
            raise ValueError(f"gamma and eta must be finite, got gamma={self.gamma}, "
                             f"eta={self.eta}")
        if self.variant == "lpd" and self.n_primal < 2:
            raise ValueError("lpd needs at least two primal channels")
        object.__setattr__(self, "seed", int(self.seed))


# ---------------------------------------------------------------------------
# momentum modules (duck-typed: step(state, g) -> (d, state); state starts
# as None).  The rma module is ``layers.LstmStack``.

class NoMomentum:
    """Pass the raw gradient through as the update direction."""

    def step(self, state, g):
        return g, None

    def named_params(self, prefix):
        return ()


class MomentumMA:
    """Explicit velocity recursion v' = gamma * v - eta * g."""

    def __init__(self, gamma=0.9, eta=1e-3):
        self.gamma = float(gamma)
        self.eta = float(eta)

    def step(self, state, g):
        v_prev = state if state is not None else Tensor(np.zeros_like(g.data))
        v = sub(scale(v_prev, self.gamma), scale(g, self.eta))
        return v, v

    def named_params(self, prefix):
        return ()


# ---------------------------------------------------------------------------
# model

def _as_channel(vec, batch, n):
    """(B, n) vector -> (B, 1, n) feature map."""
    return reshape(vec, (batch, 1, n))


def fuse_direction(fusion, x_channels, direction):
    """Concatenate features with a direction channel and mix with one conv."""
    batch, _, n = x_channels.data.shape
    stacked = concat_channels([x_channels, _as_channel(direction, batch, n)])
    return fusion(stacked)


@dataclass
class ReconstructionTrace:
    """Per-iteration snapshots for diagnostics; x has T+1 entries."""

    x: list = field(default_factory=list)
    u: list = field(default_factory=list)
    direction: list = field(default_factory=list)


class UnrollModel:
    """A reconstruction network: variant x momentum mode x unroll count."""

    def __init__(self, config, operator, primal_nets, dual_nets, fusions,
                 momentum_module):
        self.config = config
        self.operator = operator
        self.primal_nets = primal_nets      # list of ConvStack (length T or 1)
        self.dual_nets = dual_nets          # list of ConvStack, lpd only
        self.fusions = fusions              # list of Conv1dLayer, rma only
        self.momentum_module = momentum_module

    @property
    def variant(self):
        return self.config.variant

    @property
    def momentum(self):
        return self.config.momentum

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, variant, momentum, operator, unroll=None, **kwargs):
        """Initialize a model; ``kwargs`` are the other ModelConfig fields."""
        config = ModelConfig(variant, momentum, unroll, **kwargs)
        unroll, width, kernel = config.unroll, config.width, config.kernel
        n_primal, n_dual = config.n_primal, config.n_dual
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5e]))
        shared = variant == "lpgdsw"
        blocks = 1 if shared else unroll
        fused = momentum == "rma"

        if variant == "lpd":
            primal_in = width if fused else n_primal + 1
            primal_out = n_primal
            dual_in = n_dual + 2
        else:
            primal_in = width if fused else 2
            primal_out = 1
            dual_in = None

        fusions = []
        primal_nets = []
        dual_nets = []
        for _ in range(blocks):
            if fused:
                raw_in = (n_primal if variant == "lpd" else 1) + 1
                fusions.append(Conv1dLayer.create(rng, raw_in, width, k=kernel))
            primal_nets.append(ConvStack.create(
                rng, (primal_in, width, width, primal_out), k=kernel))
            if variant == "lpd":
                # The dual stack keeps a live output layer: with it zeroed the
                # dual state stays at zero, the primal direction J(x0)'u
                # vanishes, and (mean-centered signals) every gradient at the
                # zero initialization cancels exactly -- a saddle that stalls
                # training.  A live dual feeds the measurement residual to the
                # primal update from the first step, while the zero-initialized
                # primal output layers still pin the reconstruction at x0.
                # The T-fold residual accumulation grows the initial dual
                # state roughly 1.4x per iteration, which passes ~100 around
                # T=12 and overflows through the quadratic measurement map by
                # T=22.  Tapering the output layer as min(1, 12/T) leaves
                # shallow models untouched and pins the deep ones at the same
                # ~O(100) initial magnitude guardrail.
                dual_nets.append(ConvStack.create(
                    rng, (dual_in, width, n_dual), k=kernel, zero_last=False,
                    out_scale=min(1.0, 12.0 / max(unroll, 1))))

        if momentum == "none":
            mom = NoMomentum()
        elif momentum == "ma":
            mom = MomentumMA(gamma=config.gamma, eta=config.eta)
        else:
            mom = LstmStack.create(
                rng, input_size=operator.n, hidden_size=config.lstm_hidden,
                layers=config.lstm_layers)

        return cls(config, operator, primal_nets, dual_nets, fusions, mom)

    def _block(self, seq, t):
        return seq[0] if len(seq) == 1 else seq[t]

    # -- parameters ---------------------------------------------------------

    def named_params(self):
        out = []
        for t, net in enumerate(self.primal_nets):
            out.extend(net.named_params(f"primal{t}"))
        for t, net in enumerate(self.dual_nets):
            out.extend(net.named_params(f"dual{t}"))
        for t, layer in enumerate(self.fusions):
            out.extend(layer.named_params(f"fusion{t}"))
        out.extend(self.momentum_module.named_params("rma"))
        return out

    def param_list(self):
        return [t for _, t in self.named_params()]

    def count_params(self):
        return sum(t.data.size for t in self.param_list())

    # -- reconstruction -----------------------------------------------------

    def reconstruct(self, y, trace=False):
        """Map observations to a reconstruction.

        ``y`` may be one observation (m,) or a batch (B, m); the result
        matches.  Momentum state is created fresh per call.
        """
        y_t = as_tensor(y)
        squeeze = y_t.data.ndim == 1
        if squeeze:
            y_t = reshape(y_t, (1, y_t.data.shape[0]))
        if y_t.data.shape[-1] != self.operator.m:
            raise ValueError(
                f"observation length {y_t.data.shape[-1]} != operator m={self.operator.m}")

        rec = ReconstructionTrace() if trace else None
        if self.variant == "lpd":
            x = self._run_primal_dual(y_t, rec)
        else:
            x = self._run_proximal_gradient(y_t, rec)
        if squeeze:
            x = reshape(x, (self.operator.n,))
        return (x, rec) if trace else x

    def _snap(self, rec, attr, tensor):
        if rec is not None:
            getattr(rec, attr).append(tensor.data.copy())

    def _run_proximal_gradient(self, y_t, rec):
        op = self.operator
        batch = y_t.data.shape[0]
        x = Tensor(np.zeros((batch, op.n)))
        mom_state = None
        self._snap(rec, "x", x)
        for t in range(self.config.unroll):
            g = data_grad(op, x, y_t)
            d, mom_state = self.momentum_module.step(mom_state, g)
            self._snap(rec, "direction", d)
            x_ch = _as_channel(x, batch, op.n)
            if self.fusions:
                feats = fuse_direction(self._block(self.fusions, t), x_ch, d)
            else:
                feats = concat_channels([x_ch, _as_channel(d, batch, op.n)])
            step = self._block(self.primal_nets, t)(feats)
            x = add(x, reshape(step, (batch, op.n)))
            self._snap(rec, "x", x)
        return x

    def _run_primal_dual(self, y_t, rec):
        op = self.operator
        batch = y_t.data.shape[0]
        x = Tensor(np.zeros((batch, self.config.n_primal, op.n)))
        u = Tensor(np.zeros((batch, self.config.n_dual, op.m)))
        mom_state = None
        self._snap(rec, "x", x)
        self._snap(rec, "u", u)
        y_ch = _as_channel(y_t, batch, op.m)
        for t in range(self.config.unroll):
            x2 = reshape(slice_channels(x, 1, 2), (batch, op.n))
            fx2 = forward(op, x2)
            dual_in = concat_channels([u, _as_channel(fx2, batch, op.m), y_ch])
            u = add(u, self._block(self.dual_nets, t)(dual_in))
            x1 = reshape(slice_channels(x, 0, 1), (batch, op.n))
            u1 = reshape(slice_channels(u, 0, 1), (batch, op.m))
            g = vjp(op, x1, u1)
            d, mom_state = self.momentum_module.step(mom_state, g)
            self._snap(rec, "direction", d)
            if self.fusions:
                feats = fuse_direction(self._block(self.fusions, t), x, d)
            else:
                feats = concat_channels([x, _as_channel(d, batch, op.n)])
            x = add(x, self._block(self.primal_nets, t)(feats))
            self._snap(rec, "x", x)
            self._snap(rec, "u", u)
        return reshape(slice_channels(x, 0, 1), (batch, op.n))


# ---------------------------------------------------------------------------
# checkpoints

def save_model(model, path):
    """Write parameters plus the manifest needed to rebuild the model."""
    op = model.operator
    meta = {
        "kind": "unroll-model", **asdict(model.config),
        "op": {"a": op.a, "b": op.b, "n": op.n, "k": op.k,
               "stride": op.stride, "seed": op.seed,
               "fingerprint": op.fingerprint()},
    }
    named = list(model.named_params())
    named.append(("operator.w1", op.w1))
    named.append(("operator.w2", op.w2))
    save_params(path, named, meta=meta)


def load_model(path):
    """Rebuild a model from a checkpoint, verifying the operator hash."""
    arrays, meta = load_params(path)
    if meta.get("kind") != "unroll-model":
        raise ValueError(f"{path}: not a model checkpoint")
    om = meta["op"]
    op = VolterraOperator(w1=arrays.pop("operator.w1"),
                          w2=arrays.pop("operator.w2"),
                          a=om["a"], b=om["b"], stride=om["stride"],
                          n=om["n"], seed=om["seed"])
    if op.fingerprint() != om["fingerprint"]:
        raise ValueError(f"{path}: operator fingerprint mismatch")
    model = UnrollModel.build(
        operator=op, **{f.name: meta[f.name] for f in fields(ModelConfig)})
    expected = dict(model.named_params())
    if set(expected) != set(arrays):
        raise ValueError(f"{path}: checkpoint names do not match architecture")
    for name, tensor in expected.items():
        if arrays[name].shape != tensor.data.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        tensor.data = arrays[name]
    return model
