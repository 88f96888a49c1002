"""Unrolled reconstruction networks over the windowed-quadratic operator.

Three iteration schemes -- proximal-gradient style with per-iteration
weights (lpgd), the same with one shared weight set (lpgdsw), and a
primal-dual scheme with stacked states (lpd) -- each combinable with a
momentum mode: none, an explicit velocity recursion (ma), or a learned
LSTM velocity (rma).

Every pair runs one iteration body (``UnrollModel.reconstruct``): a
gradient g, the momentum module's direction d from it, the features
[x, d] (mixed by a fusion conv under rma), the primal net, and a residual
add to x.  The schemes differ in three places only: the gradient (lpgd
and lpgdsw take the data-consistency gradient J(x)'(F(x) - y); lpd first
updates its dual state u from [u, F(x2), y], then takes J(x1)'u1 over the
first primal and dual channels), the iterate's channel view (lpgd
reshapes x to one channel and the step back; lpd's x has n_primal
channels), and the output (lpd returns its first primal channel).

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got seed={self.seed}")


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

def fuse_direction(fusion, x_channels, direction):
    """Stack the features with a direction channel; mix them with ``fusion`` if any."""
    batch, _, n = x_channels.data.shape
    stacked = concat_channels([x_channels, reshape(direction, (batch, 1, n))])
    return stacked if fusion is None else fusion(stacked)


@dataclass
class ReconstructionTrace:
    """Per-iteration snapshots for diagnostics.

    ``x`` and ``u`` (lpd's dual state; empty otherwise) hold the start and
    every iterate, T+1 entries; ``direction`` holds the T update directions.
    """

    x: list = field(default_factory=list)
    u: list = field(default_factory=list)
    direction: list = field(default_factory=list)

    def snap(self, x, u, direction=None):
        """Append copies of the tensors given; None is skipped."""
        for seq, tensor in ((self.x, x), (self.u, u), (self.direction, direction)):
            if tensor is not None:
                seq.append(tensor.data.copy())


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
        n_dual = config.n_dual
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5e]))
        fused = momentum == "rma"
        lpd = variant == "lpd"
        channels = config.n_primal if lpd else 1   # the iterate's feature channels

        fusions, primal_nets, dual_nets = [], [], []
        for _ in range(1 if variant == "lpgdsw" else unroll):
            if fused:
                fusions.append(Conv1dLayer.create(rng, channels + 1, width, k=kernel))
            primal_nets.append(ConvStack.create(
                rng, (width if fused else channels + 1, width, width, channels),
                k=kernel))
            if lpd:
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
                    rng, (n_dual + 2, width, n_dual), k=kernel,
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
        op, config = self.operator, self.config
        y_t = as_tensor(y)
        if y_t.data.ndim not in (1, 2) or y_t.data.shape[-1] != op.m:
            raise ValueError(f"expected one observation (m,) or a batch (B, m) with "
                             f"m={op.m}, got observation shape {y_t.data.shape}")
        squeeze = y_t.data.ndim == 1
        if squeeze:
            y_t = reshape(y_t, (1, op.m))
        batch = y_t.data.shape[0]
        lpd = self.variant == "lpd"

        # lpd iterates on stacked primal and dual states; lpgd on x alone.
        if lpd:
            x = Tensor(np.zeros((batch, config.n_primal, op.n)))
            u = Tensor(np.zeros((batch, config.n_dual, op.m)))
            y_ch = reshape(y_t, (batch, 1, op.m))
        else:
            x, u = Tensor(np.zeros((batch, op.n))), None
        rec = ReconstructionTrace() if trace else None
        if rec is not None:
            rec.snap(x, u)
        mom_state = None
        for t in range(config.unroll):
            if lpd:
                # dual update, then J(x1)' u1 from the first primal and dual channels
                x2 = reshape(slice_channels(x, 1, 2), (batch, op.n))
                fx2 = reshape(forward(op, x2), (batch, 1, op.m))
                dual_in = concat_channels([u, fx2, y_ch])
                u = add(u, self._block(self.dual_nets, t)(dual_in))
                g = vjp(op, reshape(slice_channels(x, 0, 1), (batch, op.n)),
                        reshape(slice_channels(u, 0, 1), (batch, op.m)))
            else:
                g = data_grad(op, x, y_t)
            d, mom_state = self.momentum_module.step(mom_state, g)
            x_ch = x if lpd else reshape(x, (batch, 1, op.n))
            fusion = self._block(self.fusions, t) if self.fusions else None
            step = self._block(self.primal_nets, t)(fuse_direction(fusion, x_ch, d))
            x = add(x, step if lpd else reshape(step, (batch, op.n)))
            if rec is not None:
                rec.snap(x, u, d)
        if lpd:
            x = reshape(slice_channels(x, 0, 1), (batch, op.n))
        if squeeze:
            x = reshape(x, (op.n,))
        return (x, rec) if trace else x


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
    try:
        om = meta["op"]
        geometry = {key: om[key] for key in ("a", "b", "stride", "n", "seed")}
        fingerprint = om["fingerprint"]
        config = {f.name: meta[f.name] for f in fields(ModelConfig)}
    except KeyError as exc:
        raise ValueError(f"{path}: manifest lacks key {exc.args[0]!r}") from None
    try:
        w1, w2 = arrays.pop("operator.w1"), arrays.pop("operator.w2")
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks array {exc.args[0]!r}") from None
    try:
        op = VolterraOperator(w1=w1, w2=w2, **geometry)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: manifest holds a bad operator ({exc})") from None
    if op.fingerprint() != fingerprint:
        raise ValueError(f"{path}: operator fingerprint mismatch")
    model = UnrollModel.build(operator=op, **config)
    expected = dict(model.named_params())
    if set(expected) != set(arrays):
        raise ValueError(f"{path}: checkpoint names do not match architecture")
    for name, tensor in expected.items():
        if arrays[name].shape != tensor.data.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        tensor.data = arrays[name]
    return model
