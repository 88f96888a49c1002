"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records every differentiable operation of one forward pass in
execution order; ``backward`` replays the record in reverse, summing
gradient contributions over fan-out.  Tensors without an open tape are
constants and cost nothing extra, so inference reuses the same code paths.

Operations accept either the exact shapes they document or the same shapes
with one extra leading batch axis; gradients of broadcast operands are
reduced over the added axes.

Memory layout: feature maps have the *shape* (B, C, N), but conv1d returns
them, and its input gradient, channel-major in *memory*: a free transpose
view of a (C, B, N) array.  Elementwise ops, ``np.copy`` and
``np.concatenate`` keep that layout, so the next conv reads its input
without a copy.  No value depends on the layout: the reductions whose order
it could change (``sum_all``, the PReLU slope gradient) fix their order.

Two lanes: a batch of more than ``_TILE`` samples, on a host whose CPU
affinity holds at least two CPUs, runs conv1d's sample blocks and the PReLU
forward's channel chunks on the calling thread and one helper thread
(``_blockwise``).  Each block is a single-threaded numpy pass that writes
its own slice of the output, with the same block boundaries either way, so
no value depends on which lane ran it or on the host's CPU count.  Only
numpy kernels run on the helper; every op, ``record_op`` and the tape run
on the calling thread.
"""

import os

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class Tape:
    """Ordered record of one forward pass.

    Use as a context manager around a forward/backward pair; leaving the
    block closes the tape and drops the recorded graph, so later operations
    on the same tensors run as plain numpy.
    """

    def __init__(self):
        self._records = []  # (output, inputs, pull) in execution order
        self.closed = False

    def watch(self, *tensors):
        """Mark leaf tensors (parameters) as tracked on this tape."""
        if self.closed:
            raise RuntimeError("cannot watch tensors on a closed tape")
        for t in tensors:
            t.tape = self

    def close(self):
        self.closed = True
        self._records.clear()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __len__(self):
        return len(self._records)


class Tensor:
    """A dense float64 array plus an optional link to the tape that made it."""

    __slots__ = ("data", "tape")

    def __init__(self, data, tape=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tracked = self.tape is not None and not self.tape.closed
        return f"Tensor(shape={self.data.shape}, tracked={tracked})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _open_tape(*tensors):
    """The single open tape among the inputs, or None for a constant op."""
    tape = None
    for t in tensors:
        if isinstance(t, Tensor) and t.tape is not None and not t.tape.closed:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise RuntimeError("operands recorded on different open tapes")
    return tape


def record_op(out_data, inputs, pull):
    """Wrap ``out_data`` as a Tensor, recording ``pull`` if any input is live.

    ``pull(g)`` receives the upstream gradient of the output and returns one
    gradient array (or None) per input.  Custom differentiable operations
    (e.g. measurement operators) plug into the engine through this hook.
    """
    out = Tensor(out_data)
    tape = _open_tape(*inputs)
    if tape is not None:
        out.tape = tape
        tape._records.append((out, tuple(inputs), pull))
    return out


def backward(loss, params):
    """Accumulate gradients of a scalar ``loss`` for every tensor in ``params``.

    Returns ``{param: gradient}``; parameters that do not influence the loss
    map to zeros.  A constant loss (no tape) yields all-zero gradients.
    """
    if loss.data.shape != ():
        raise ShapeError(f"loss must be a scalar, got shape {loss.data.shape}")
    grads = {}
    tape = loss.tape
    if tape is not None and not tape.closed:
        grads[id(loss)] = np.ones(())
        for out, inputs, pull in reversed(tape._records):
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
            for t, g in zip(inputs, pull(g_out)):
                if g is None or not isinstance(t, Tensor):
                    continue
                if t.tape is None or t.tape.closed:
                    continue
                prev = grads.get(id(t))
                grads[id(t)] = g if prev is None else prev + g
    return {p: grads[id(p)] if id(p) in grads else np.zeros_like(p.data)
            for p in params}


# ---------------------------------------------------------------------------
# elementwise operations

def _reduce_to(g, shape):
    """Sum the upstream gradient over broadcast leading axes down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _binary_shapes(name, a, b):
    """Allow equal shapes, scalars, or one operand a trailing-suffix of the other."""
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    if sa == () or sb == ():
        return
    if len(sa) > len(sb) and sa[len(sa) - len(sb):] == sb:
        return
    if len(sb) > len(sa) and sb[len(sb) - len(sa):] == sa:
        return
    raise ShapeError(f"{name}: shape mismatch {sa} vs {sb}")


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes("add", a, b)
    out = a.data + b.data

    def pull(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return record_op(out, (a, b), pull)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes("sub", a, b)
    out = a.data - b.data

    def pull(g):
        return _reduce_to(g, a.data.shape), -_reduce_to(g, b.data.shape)

    return record_op(out, (a, b), pull)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes("mul", a, b)
    out = a.data * b.data

    def pull(g):
        return (_reduce_to(g * b.data, a.data.shape),
                _reduce_to(g * a.data, b.data.shape))

    return record_op(out, (a, b), pull)


def scale(a, c):
    """Multiply by a plain (non-differentiated) python scalar."""
    a = as_tensor(a)
    c = float(c)

    def pull(g):
        return (g * c,)

    return record_op(a.data * c, (a,), pull)


def neg(a):
    a = as_tensor(a)

    def pull(g):
        return (-g,)

    return record_op(-a.data, (a,), pull)


def sum_all(a):
    """Sum of all entries in C order, as a scalar tensor, whatever the layout."""
    a = as_tensor(a)

    def pull(g):
        return (np.full_like(a.data, float(g)),)

    return record_op(np.ascontiguousarray(a.data).sum(), (a,), pull)


def reshape(a, shape):
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def pull(g):
        return (g.reshape(a.data.shape),)

    return record_op(out, (a,), pull)


# ---------------------------------------------------------------------------
# linear maps

def matvec(w, x):
    """y = W x for W of shape (m, n) and x of shape (n,) or (B, n)."""
    w, x = as_tensor(w), as_tensor(x)
    if w.data.ndim != 2:
        raise ShapeError(f"matvec: weight must be 2-D, got {w.data.shape}")
    if x.data.ndim not in (1, 2) or x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"matvec: cannot apply {w.data.shape} to {x.data.shape}")
    out = x.data @ w.data.T

    def pull(g):
        if x.data.ndim == 1:
            return np.outer(g, x.data), g @ w.data
        return g.T @ x.data, g @ w.data

    return record_op(out, (w, x), pull)


def _im2col(xb, k):
    """The (C·k, B·N) columns of a (B, C, N) batch, same-padded for extent k.

    Row ``c·k + j``, column ``b·N + m`` holds ``xb[b, c, m + j - k//2]``
    (zero outside the signal), so a ``(C_out, C·k)`` kernel matrix times the
    columns correlates the whole batch in one GEMM.  The batch is read as C
    rows of B·N values, a free view of a channel-major batch (or of a sample
    slice of one); another layout is copied once.  Tap j is one 2-D copy of
    those rows shifted by d = j - k//2; then, per sample, the |d| positions
    whose read crossed a sample edge (which include the row ends the copy
    left unwritten) are zeroed, or the whole tap when |d| >= N.  No padded
    copy of the input is made.
    """
    b_sz, c, n = xb.shape
    bn = b_sz * n
    rows = xb.transpose(1, 0, 2).reshape(c, bn)
    cols = np.empty((c, k, b_sz, n))
    taps = cols.reshape(c, k, bn)
    for j in range(k):
        d = j - k // 2
        if abs(d) >= n:
            cols[:, j] = 0.0
        elif d >= 0:
            taps[:, j, :bn - d] = rows[:, d:]
            cols[:, j, :, n - d:] = 0.0
        else:
            taps[:, j, -d:] = rows[:, :bn + d]
            cols[:, j, :, :-d] = 0.0
    return cols.reshape(c * k, bn)


# Samples per block in ``_correlate``.  At protocol shapes (C·k = 96,
# N = 53) a 32-sample block of float64 columns takes 1.3 MB and stays in a
# 2 MiB L2 cache while its GEMM reads it; a whole B=256 batch takes 10.4 MB.
_TILE = 32

_helper = None  # the second lane's one-thread executor, made on first use


def _drop_helper():
    # a forked child inherits the executor but not its thread
    global _helper
    _helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _cpus():
    """CPUs this process may run on (1 where the OS cannot say, as on macOS)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _blockwise(fn, edges):
    """Run ``fn(lo, hi)`` for each pair of consecutive ``edges``.

    With more than one block and at least two CPUs in this process's
    affinity, the calling thread and one helper thread each claim the next
    unclaimed block until none are left, so a stalled lane only leaves more
    blocks to the other.  The blocks must be independent numpy work writing
    disjoint outputs.  The caller returns or raises only once the helper has
    finished or was cancelled before it started.
    """
    global _helper
    # next() on a list iterator is one C call under the GIL, so a claim is
    # atomic; and an exhausted list iterator drops its list, so a cancelled
    # hand-off still queued for a starved helper holds no block's arrays.
    claims = iter([(fn, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])])

    def drain():
        for block, lo, hi in claims:
            block(lo, hi)

    if len(edges) <= 2 or _cpus() < 2:
        drain()
        return
    if _helper is None:
        # imported here: a process that never runs two lanes never loads it
        from concurrent.futures import ThreadPoolExecutor
        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dunets-lane")
    lane = _helper.submit(drain)
    try:
        drain()
    finally:
        if not lane.cancel():
            lane.exception()  # waits for the helper without raising
    if not lane.cancelled():
        lane.result()  # raises the helper's exception, if any


def _sums_taps(kernel):
    """Whether ``_correlate`` sums taps rather than building columns, which
    copy each of the C_in channels k times: when ``k·C_out <= C_in``."""
    c_out, c_in, k = kernel.shape
    return k * c_out <= c_in


def _correlate(xb, kernel, bias=None, cols=None):
    """The (C_out, B, N) same-padded correlation of a (B, C_in, N) batch with
    a (C_out, C_in, k) kernel, plus ``bias`` per output channel.

    With ``_sums_taps(kernel)``, the tap-stacked kernel (row ``j·C_out + o``
    holding output o's tap j) times the input's (C_in, B·N) rows; output
    position m then sums the tap-j product at m + j - k//2 of the same
    sample, and nothing past the sample's edge: the centre tap first, then
    the others in order.  Otherwise the (C_out, C_in·k) kernel matrix times
    the columns: ``cols(lo, hi)`` gives those of samples [lo, hi), else
    ``_im2col`` builds them.  The two paths round differently.

    The result is allocated up front, so it sits below each block's
    short-lived temporaries, and filled ``_TILE`` samples at a time; above
    one tile the blocks run on two lanes (``_blockwise``).  Each block adds
    the bias last.
    """
    c_out, c_in, k = kernel.shape
    b_sz, _, n = xb.shape
    out = np.empty((c_out, b_sz * n))
    if _sums_taps(kernel):
        kstack, h = kernel.transpose(2, 0, 1).reshape(k * c_out, c_in), k // 2

        def product(part, lo, hi):
            taps = kstack @ xb[lo:hi].transpose(1, 0, 2).reshape(c_in, -1)
            taps = taps.reshape(k, c_out, hi - lo, n)
            acc = part.reshape(c_out, hi - lo, n)  # a view of part
            acc[...] = taps[h]
            for j in range(k):
                d = j - h
                if d and abs(d) < n:  # position m in [m0, m1) reads m + d
                    m0, m1 = max(0, -d), n - max(0, d)
                    acc[..., m0:m1] += taps[j, ..., m0 + d:m1 + d]
    else:
        kmat = kernel.reshape(c_out, c_in * k)
        cols = cols or (lambda lo, hi: _im2col(xb[lo:hi], k))

        def product(part, lo, hi):
            np.matmul(kmat, cols(lo, hi), out=part)

    def block(lo, hi):
        part = out[:, lo * n:hi * n]
        product(part, lo, hi)
        if bias is not None:
            part += bias[:, None]

    _blockwise(block, [*range(0, b_sz, _TILE), b_sz])
    return out.reshape(c_out, b_sz, n)


def conv1d(x, kernel, bias):
    """Same-padded 1-D cross-correlation over channels.

    x: (C_in, N) or (B, C_in, N); kernel: (C_out, C_in, k) with odd k;
    bias: (C_out,).  Output length equals N (zero padding).

    One routine, ``_correlate``, serves both directions, each call on its
    kernel's narrower side (``_sums_taps``): the forward correlates the input
    with the kernel, and the input gradient is the correlation of the output
    gradient with the flipped, transposed kernel ``K'[c, o, j] = K[o, c,
    k-1-j]``.  The pull builds one set of columns for the whole batch and
    takes the kernel gradient from them in one GEMM: the input's columns when
    the input gradient sums taps (``g_K`` is the output gradient, seen as
    (C_out, B·N), times them); else the output gradient's, which the input
    gradient's column GEMMs reuse (``g_K[o, c, j]`` is entry ``(c, o·k +
    k-1-j)`` of the input, seen as (C_in, B·N), times them).

    The kernel gradient's reduction over samples is never split, and the
    tape keeps no column buffer.  A batched output, like the input gradient,
    is the channel-major result seen through a free transpose.
    """
    x, kernel, bias = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if kernel.data.ndim != 3:
        raise ShapeError(f"conv1d: kernel must be 3-D, got {kernel.data.shape}")
    c_out, c_in, k = kernel.data.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel extent must be odd, got {k}")
    if bias.data.shape != (c_out,):
        raise ShapeError(f"conv1d: bias shape {bias.data.shape} != ({c_out},)")
    batched = x.data.ndim == 3
    if x.data.ndim not in (2, 3) or x.data.shape[-2] != c_in:
        raise ShapeError(
            f"conv1d: input {x.data.shape} incompatible with kernel {kernel.data.shape}")

    xb = x.data if batched else x.data[None]
    kdata = kernel.data
    b_sz, _, n = xb.shape
    out = _correlate(xb, kdata, bias.data).transpose(1, 0, 2)

    def pull(g):
        gb = g if batched else g[None]
        g_t = gb.transpose(1, 0, 2).reshape(c_out, b_sz * n)
        kflip = kdata[:, :, ::-1].transpose(1, 0, 2)
        if _sums_taps(kflip):
            g_kernel = (g_t @ _im2col(xb, k).T).reshape(c_out, c_in, k)
            g_x = _correlate(gb, kflip)
        else:
            gcols = _im2col(gb, k)
            x_t = xb.transpose(1, 0, 2).reshape(c_in, b_sz * n)
            g_kernel = np.ascontiguousarray(
                (x_t @ gcols.T).reshape(c_in, c_out, k)[:, :, ::-1].transpose(1, 0, 2))
            g_x = _correlate(gb, kflip, cols=lambda lo, hi: gcols[:, lo * n:hi * n])
        g_x = g_x.transpose(1, 0, 2)
        return (g_x if batched else g_x[0]), g_kernel, g_t.sum(axis=1)

    return record_op(out if batched else out[0], (x, kernel, bias), pull)


# ---------------------------------------------------------------------------
# nonlinearities

def _sigmoid_data(x):
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so each branch
    # is the overflow-free formula for its sign, on the same inputs
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)

    def pull(g):
        return (g * (1.0 - out * out),)

    return record_op(out, (a,), pull)


def sigmoid(a):
    a = as_tensor(a)
    out = _sigmoid_data(a.data)

    def pull(g):
        return (g * out * (1.0 - out),)

    return record_op(out, (a,), pull)


def prelu(x, slope):
    """Per-channel parametric ReLU on (C, N) or (B, C, N) features.

    Branch-free: ``s·min(x, 0) + max(x, 0)`` and the gradient factor
    ``neg·s + ~neg`` round exactly like a masked select, because one term of
    each sum is an exact zero.  The pull recomputes the sign mask from the
    input array, which the record already holds.  The output keeps the
    input's memory layout.  A batch of more than _TILE samples is computed
    in one channel chunk per _TILE samples, on two lanes (``_blockwise``).
    """
    x, slope = as_tensor(x), as_tensor(slope)
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"prelu: expected channel-major features, got {x.data.shape}")
    c = x.data.shape[-2]
    if slope.data.shape != (c,):
        raise ShapeError(f"prelu: slope shape {slope.data.shape} != ({c},)")
    xd = x.data
    s = slope.data[:, None]
    out = np.empty_like(xd)

    def chunk(lo, hi):
        part = out[..., lo:hi, :]
        np.minimum(xd[..., lo:hi, :], 0.0, out=part)
        part *= s[lo:hi]
        part += np.maximum(xd[..., lo:hi, :], 0.0)

    chunks = min(c, -(-len(xd) // _TILE)) if xd.ndim == 3 else 1
    _blockwise(chunk, [c * i // chunks for i in range(chunks + 1)])

    def pull(g):
        # the factor neg·s + ~neg, with both masks cast to 0.0/1.0 first, and
        # the products g·factor and g·min(x, 0), formed in two buffers
        g_x = (xd < 0).astype(np.float64)
        m = 1.0 - g_x
        g_x *= s
        g_x += m
        np.multiply(g, g_x, out=g_x)
        np.minimum(xd, 0.0, out=m)
        np.multiply(g, m, out=m)
        # rows over N, then samples in order, whatever the memory layout
        g_s = m.sum(axis=-1)
        if g_s.ndim == 2:
            g_s = np.ascontiguousarray(g_s).sum(axis=0)
        return g_x, g_s

    return record_op(out, (x, slope), pull)


# ---------------------------------------------------------------------------
# channel stacking

def concat_channels(parts):
    """Stack (C_i, N) or (B, C_i, N) parts along the channel axis."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_channels: empty part list")
    ndim = parts[0].data.ndim
    spatial = parts[0].data.shape[-1]
    for p in parts:
        if p.data.ndim != ndim or p.data.shape[-1] != spatial or \
                (ndim == 3 and p.data.shape[0] != parts[0].data.shape[0]):
            raise ShapeError(
                "concat_channels: incompatible part shapes "
                f"{[tuple(q.data.shape) for q in parts]}")
    out = np.concatenate([p.data for p in parts], axis=-2)
    sizes = [p.data.shape[-2] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def pull(g):
        return tuple(np.split(g, splits, axis=-2))

    return record_op(out, tuple(parts), pull)


def slice_channels(x, lo, hi):
    """The channel slice [lo:hi) of (C, N) or (B, C, N) features."""
    x = as_tensor(x)
    if x.data.ndim not in (2, 3) or not (0 <= lo < hi <= x.data.shape[-2]):
        raise ShapeError(f"slice_channels: [{lo}:{hi}) invalid for {x.data.shape}")
    out = np.copy(x.data[..., lo:hi, :])  # keeps the memory layout

    def pull(g):
        g_x = np.zeros_like(x.data)
        g_x[..., lo:hi, :] = g
        return (g_x,)

    return record_op(out, (x,), pull)
