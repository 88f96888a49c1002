"""Span tracer that wraps dunets' public functions from outside the package.

``Tracer.install()`` replaces each traced function in every dunets module
that holds it (so names pulled in with ``from ... import`` are covered
too), wraps the ``pull`` handed to ``autodiff.record_op`` so backward time
lands on the op that recorded it, and ``uninstall()`` puts the originals
back.  Spans (name, start, end, parent, step) live in parallel lists until
``write()``; ``layer_metrics()`` turns them into per-step figures.

Self time is a span's duration minus the durations of its direct children.
Children never overlap (one thread, strict nesting), so the self times of
all spans under a step root add up to the root's duration minus the root's
own uncovered time ("glue").
"""

import gzip
import sys
import time
from collections import defaultdict

import numpy as np

from dunets import autodiff, layers, training, unrolling, volterra

clock = time.perf_counter

ROOT = "step"

# Tape ops reported by name (``neg`` is left out: no model calls it).
AUTODIFF_OPS = ("conv1d", "prelu", "matvec", "tanh", "sigmoid",
                "concat_channels", "slice_channels", "reshape", "add", "sub",
                "mul", "scale", "sum_all")
VOLTERRA_OPS = ("forward", "vjp", "data_grad")
SETUP_FUNCS = ("volterra.gen_dataset", "volterra.save_dataset",
               "volterra.load_dataset", "unrolling.build",
               "unrolling.save_model", "unrolling.load_model")


def _dunets_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dunets" or name.startswith("dunets."))]


def _tracked(t):
    return (isinstance(t, autodiff.Tensor) and t.tape is not None
            and not t.tape.closed)


def _shape(t):
    return np.shape(t.data if isinstance(t, autodiff.Tensor) else t)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement):
        """Rebind every dunets module attribute that is ``original``."""
        for mod in _dunets_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.steps = [], []
        self.step = -1          # -1: outside any step (setup)
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = Patches()

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(clock())
        return idx

    def close(self, idx):
        self.ends[idx] = clock()
        self._stack.pop()

    def count(self, name, value):
        if self.step >= 0:
            self.counts[name] += value

    def begin_step(self, step):
        self.step = step
        return self.open(ROOT)

    def end_step(self, idx):
        self.close(idx)
        self.step = -1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        p = self._patches
        for op in AUTODIFF_OPS:
            original = getattr(autodiff, op)
            p.everywhere(original, self.wrap(f"autodiff.{op}", original))
        for op in VOLTERRA_OPS + ("gen_dataset", "save_dataset", "load_dataset"):
            original = getattr(volterra, op)
            p.everywhere(original, self.wrap(f"volterra.{op}", original))
        for op in ("save_model", "load_model"):
            original = getattr(unrolling, op)
            p.everywhere(original, self.wrap(f"unrolling.{op}", original))
        for mod, op in ((layers, "clip_global_norm"), (training, "evaluate"),
                        (training, "mse_loss")):
            original = getattr(mod, op)
            p.everywhere(original, self.wrap(f"{mod.__name__[7:]}.{op}", original))
        p.everywhere(autodiff.record_op, self._record_op(autodiff.record_op))
        p.everywhere(autodiff.backward, self._backward(autodiff.backward))

        p.set(autodiff.Tape, "close",
              self.wrap("autodiff.Tape.close", autodiff.Tape.close))
        p.set(layers.ConvStack, "__call__",
              self.wrap("layers.ConvStack", layers.ConvStack.__call__))
        p.set(layers.LstmStack, "__call__",
              self.wrap("layers.LstmStack", layers.LstmStack.__call__))
        p.set(layers.Adam, "step", self.wrap("layers.Adam.step", layers.Adam.step))
        p.set(unrolling.UnrollModel, "reconstruct",
              self._reconstruct(unrolling.UnrollModel.reconstruct))
        build = unrolling.UnrollModel.__dict__["build"].__func__
        p.set(unrolling.UnrollModel, "build",
              classmethod(self.wrap("unrolling.build", build)))

    def uninstall(self):
        self._patches.undo()

    def _reconstruct(self, fn):
        def traced(model, *args, **kwargs):
            idx = self.open(f"unrolling.reconstruct.{model.variant}-{model.momentum}")
            try:
                return fn(model, *args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _backward(self, fn):
        wrapped = self.wrap("autodiff.backward", fn)

        def traced(loss, params):
            if _tracked(loss):
                self.count("autodiff.tape_records", len(loss.tape))
            return wrapped(loss, params)
        return traced

    def _record_op(self, fn):
        """Tag each pull with the innermost open span: the op recording it."""
        def traced(out_data, inputs, pull):
            tag = self.names[self._stack[-1]] if self._stack else "untagged"
            macs = cols_bytes = 0
            if tag == "autodiff.conv1d":
                x_shape, (c_out, c_in, k) = _shape(inputs[0]), _shape(inputs[1])
                batch = x_shape[0] if len(x_shape) == 3 else 1
                macs = batch * c_out * c_in * k * x_shape[-1]
                cols_bytes = 8 * batch * c_in * k * x_shape[-1]
                self.count("autodiff.conv1d.flops", 2 * macs)
                self.count("autodiff.conv1d.cols_bytes", cols_bytes)
            name = tag + ".pull"

            def traced_pull(g):
                idx = self.open(name)
                try:
                    grads = pull(g)
                finally:
                    self.close(idx)
                for t, gi in zip(inputs, grads):
                    if gi is not None:
                        self.count("autodiff.pulled", 1)
                        if not _tracked(t):
                            self.count("autodiff.pull_discarded", 1)
                if macs:
                    # weight gradient and column gradient matmuls; the
                    # column gradient is a second buffer of the cols' size
                    self.count("autodiff.conv1d.flops", 4 * macs)
                    self.count("autodiff.conv1d.cols_bytes", cols_bytes)
                return grads
            return fn(out_data, inputs, traced_pull)
        return traced

    # -- aggregation --------------------------------------------------------

    def durations(self):
        """Per span: (inclusive duration, self duration)."""
        n = len(self.starts)
        incl = [self.ends[i] - self.starts[i] for i in range(n)]
        self_t = list(incl)
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                self_t[parent] -= incl[i]
        return incl, self_t

    def layer_metrics(self, n_steps, pairs):
        """Per-step figures over spans recorded inside steps 0..n_steps-1.

        ``pairs`` names the ``<variant>-<momentum>`` models whose reconstruct
        time is reported (0 for a model the run did not use).

        Setup-phase functions (SETUP_FUNCS) are reported per setup pass from
        the spans recorded outside any step.
        """
        incl, self_t = self.durations()
        calls = defaultdict(int)
        s_self = defaultdict(float)
        s_incl = defaultdict(float)
        setup = defaultdict(float)
        covered = wall = 0.0
        for i, name in enumerate(self.names):
            if self.steps[i] < 0:
                if name in SETUP_FUNCS:
                    setup[name] += incl[i]
                continue
            calls[name] += 1
            s_self[name] += self_t[i]
            s_incl[name] += incl[i]
            if name == ROOT:
                wall += incl[i]
            else:
                covered += self_t[i]

        def per(d, key):
            return d.get(key, 0) / n_steps

        m = {}
        for op in AUTODIFF_OPS:
            key = f"autodiff.{op}"
            m[f"{key}.calls"] = per(calls, key)
            m[f"{key}.fwd_s"] = per(s_self, key)
            m[f"{key}.pull_s"] = per(s_self, key + ".pull")
        m["autodiff.backward.self_s"] = per(s_self, "autodiff.backward")
        m["autodiff.Tape.close.s"] = per(s_self, "autodiff.Tape.close")
        for key in ("autodiff.tape_records", "autodiff.conv1d.flops",
                    "autodiff.conv1d.cols_bytes"):
            m[key] = self.counts.get(key, 0) / n_steps
        pulled = self.counts.get("autodiff.pulled", 0)
        m["autodiff.pull_discarded_frac"] = (
            self.counts.get("autodiff.pull_discarded", 0) / pulled if pulled else 0.0)
        for op in VOLTERRA_OPS:
            key = f"volterra.{op}"
            m[f"{key}.calls"] = per(calls, key)
            m[f"{key}.fwd_s"] = per(s_self, key)
            m[f"{key}.pull_s"] = per(s_self, key + ".pull")
        m["volterra.data_grad.incl_s"] = per(s_incl, "volterra.data_grad")
        for key in ("layers.ConvStack", "layers.LstmStack"):
            m[f"{key}.calls"] = per(calls, key)
            m[f"{key}.s"] = per(s_self, key)
            m[f"{key}.incl_s"] = per(s_incl, key)
        m["layers.Adam.step_s"] = per(s_self, "layers.Adam.step")
        m["layers.clip_global_norm.s"] = per(s_self, "layers.clip_global_norm")
        for pair in pairs:
            key = f"unrolling.reconstruct.{pair}"
            m[f"{key}.s"] = per(s_self, key)
            m[f"{key}.incl_s"] = per(s_incl, key)
        for name in SETUP_FUNCS:
            m[f"{name}.s"] = setup.get(name, 0.0)
        m["training.forward_s"] = (
            sum(v for k, v in s_incl.items() if k.startswith("unrolling.reconstruct."))
            + s_incl.get("training.mse_loss", 0.0)) / n_steps
        m["training.backward_s"] = per(s_incl, "autodiff.backward")
        m["training.optimizer_s"] = (s_incl.get("layers.clip_global_norm", 0.0)
                                     + s_incl.get("layers.Adam.step", 0.0)) / n_steps
        m["training.evaluate_s"] = per(s_incl, "training.evaluate")
        m["trace.step_s"] = wall / n_steps
        m["trace.glue_s"] = (wall - covered) / n_steps
        m["trace.self_coverage"] = covered / wall if wall else 0.0
        m["trace.spans_per_step"] = sum(calls.values()) / n_steps
        return m

    def write(self, path):
        """Spans as gzip TSV: index, name, start, end, parent, step."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("idx\tname\tstart\tend\tparent\tstep\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                         f"{self.parents[i]}\t{self.steps[i]}\n")
