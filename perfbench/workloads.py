"""The benchmark's workloads: set-up, output checks and closed-loop drivers.

Every workload runs at the protocol shapes (n=53, k=9, s=4, a=1, default T,
width 32) from one process and one thread.  A single caller issues each
train step or eval batch only after the previous one has returned.  All
inputs derive from the workload seed; dunets only ever sees the generated
datasets and models.
"""

import os
import time

import numpy as np

from dunets import autodiff, gradcheck, training, unrolling, volterra
from dunets.volterra import SPLITS

from tracer import Patches

clock = time.perf_counter

A = 1.0
COUNTS = (10000, 1000, 1000)
GRAD_TOL = 1e-4
GRAD_H = 1e-5          # central-difference step of the gradient check
BATCH_TOL = 1e-12
PERTURB_SIGMA = 0.005
MINI_SIGMA = 0.05
MINI_DRAWS = 8


class StopRun(Exception):
    """Raised from the step-end hook to leave ``training.train`` early."""


class Checks:
    """Output checks; each counts as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class StepClock:
    """Times steps and decides when a closed-loop run stops.

    A run stops only after a whole ``unit`` of steps (one model cycle on
    eval-mix), either once ``max_steps`` are done or when one more unit,
    at the pace of the last one, would end past ``deadline``.  With a
    tracer, each step is also a root span.  With a ``hostspeed.Reference``,
    the reference is timed before the first step and after every step,
    outside the steps, into ``ref_times``.
    """

    def __init__(self, unit=1, deadline=None, max_steps=None, tracer=None,
                 reference=None):
        self.unit = unit
        self.deadline = deadline
        self.max_steps = max_steps
        self.tracer = tracer
        self.reference = reference
        self.times = []
        self.ref_times = []
        self.outputs = []
        self.val_s = 0.0
        self._t0 = self._unit_t0 = None
        self._root = None

    def begin(self):
        if self.reference is not None and not self.ref_times:
            self.ref_times.append(self.reference.time())
        if self.tracer is not None:
            self._root = self.tracer.begin_step(len(self.times))
        self._t0 = clock()
        if len(self.times) % self.unit == 0:
            self._unit_t0 = self._t0

    def end(self):
        """Close the step; True when the run should stop here."""
        now = clock()
        self.times.append(now - self._t0)
        if self.tracer is not None:
            self.tracer.end_step(self._root)
        if self.reference is not None:
            self.ref_times.append(self.reference.time())
        n = len(self.times)
        if n % self.unit:
            return False
        if self.max_steps is not None:
            return n >= self.max_steps
        return now + (now - self._unit_t0) > self.deadline


def _hook_train(step_clock, after_step):
    """Find step boundaries inside ``training.train`` from outside it.

    A step starts when train opens its Tape and ends when Adam.step returns;
    the step's output and ``after_step`` are taken outside the timed step.
    The loss and the raw gradients are caught as they pass ``backward``.
    The validation pass falls between steps and is timed on its own.
    """
    base_tape, base_adam = training.Tape, training.Adam
    base_backward, base_evaluate = training.backward, training.evaluate
    pending = {}

    class StepTape(base_tape):
        def __init__(self):
            step_clock.begin()
            super().__init__()

    class StepAdam(base_adam):
        def step(self, grads, lr):
            super().step(grads, lr)
            stop = step_clock.end()
            step_clock.outputs.append(_step_output(pending["loss"], pending["grads"],
                                                   self.params))
            after_step(self.params)
            if stop:
                raise StopRun

    def backward(loss, params):
        pending["loss"] = loss
        pending["grads"] = grads = base_backward(loss, params)
        return grads

    def evaluate(*args, **kwargs):
        t0 = clock()
        try:
            return base_evaluate(*args, **kwargs)
        finally:
            step_clock.val_s += clock() - t0

    patches = Patches()
    patches.set(training, "Tape", StepTape)
    patches.set(training, "Adam", StepAdam)
    patches.set(training, "backward", backward)
    patches.set(training, "evaluate", evaluate)
    return patches


def _step_output(loss, grads, params):
    """A train step's compared output: the loss, then each gradient's sum of squares.

    Any change in any gradient entry changes these bits, so comparing them
    compares the whole backward pass without keeping the gradients.
    """
    return np.array([float(loss.data)] + [float(np.vdot(grads[p], grads[p]))
                                          for p in params])


def _perturb(model, seed, index, sigma=PERTURB_SIGMA):
    """Move every weight off its initialization by a fixed seeded amount."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), index, 0x9e]))
    for _, t in model.named_params():
        t.data = t.data + sigma * rng.normal(size=t.data.shape)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Workload:
    """Shared set-up and checks; subclasses define the step loop."""

    batch = None
    unit = 1

    def __init__(self, pairs):
        self.pairs = pairs

    # -- checks before timing -------------------------------------------------

    def gradcheck(self, seed, checks):
        """Finite-difference check of a T=2 miniature of each model config.

        Returns {pair: (worst relative error, draw used)} for the run file.
        """
        result = {}
        for variant, momentum in self.pairs:
            worst, draw = _mini_gradcheck(variant, momentum, seed)
            result[f"{variant}-{momentum}"] = (worst, draw)
            checks.expect(worst <= GRAD_TOL,
                          f"gradcheck {variant}-{momentum}: {worst:.3e} > {GRAD_TOL}"
                          + ("" if draw is not None else
                             "; every draw crossed a PReLU kink"))
        return result

    # -- set-up -------------------------------------------------------------

    def setup(self, seed, workdir):
        """Everything before the first step: data and models via their files.

        Each model's weights get a fixed seeded perturbation off their
        initialization, where every ConvStack's output conv is zero and a
        reconstruction is the zero map.  Returns (fresh objects, loaded
        objects, sizes).  Only the loaded ones are used afterwards, as
        ``dunets eval`` and ``dunets train`` do.
        """
        data_dir = os.path.join(workdir, "data")
        ds0 = volterra.gen_dataset(A, counts=COUNTS, seed=seed)
        volterra.save_dataset(ds0, data_dir, force=True)
        ds = volterra.load_dataset(data_dir)
        fresh, loaded, ckpt_bytes = [], [], 0
        for i, (variant, momentum) in enumerate(self.pairs):
            model = unrolling.UnrollModel.build(variant, momentum, ds.operator,
                                                seed=seed)
            _perturb(model, seed, i)
            path = os.path.join(workdir, f"{variant}-{momentum}.ckpt")
            unrolling.save_model(model, path)
            ckpt_bytes += os.path.getsize(path)
            fresh.append(model)
            loaded.append(unrolling.load_model(path))
        sizes = {"volterra.dataset_bytes": _dir_bytes(data_dir),
                 "unrolling.checkpoint_bytes": ckpt_bytes}
        return (ds0, fresh), (ds, loaded), sizes

    @staticmethod
    def check_roundtrips(fresh, loaded, checks):
        (ds0, models0), (ds, models) = fresh, loaded
        checks.expect(ds0.manifest() == ds.manifest(), "dataset manifest round trip")
        checks.expect(all(same_bits(a, b)
                          for s in SPLITS
                          for a, b in zip(ds0.splits[s], ds.splits[s])),
                      "dataset arrays round trip")
        for m0, m in zip(models0, models):
            p0, p = dict(m0.named_params()), dict(m.named_params())
            checks.expect(p0.keys() == p.keys()
                          and all(same_bits(p0[k].data, p[k].data) for k in p0),
                          f"checkpoint round trip {m.variant}-{m.momentum}")

    def check_outputs(self, step_clock, checks):
        for i, out in enumerate(step_clock.outputs):
            checks.expect(np.all(np.isfinite(out)), f"non-finite output at step {i}")

    @staticmethod
    def check_nonzero(model, xhat, checks):
        """A reconstruction that is all zero does not depend on the weights."""
        checks.expect(np.any(xhat != 0.0),
                      f"trivial reconstruction {model.variant}-{model.momentum}")


class TrainWorkload(Workload):
    """``training.train`` on one model at B=32, cut off by the step clock.

    Each step runs in full (forward, backward, clipping, the Adam update),
    and then the weights go back to the seeded point that set-up loaded,
    outside the timed step.  A step's cost depends on shapes, not on weight
    values, so this changes no timing; it keeps runs off training
    trajectories that diverge: protocol training of lpgd-none at a=1 hits
    a non-finite loss within 80 steps on some seeds (8 at step 78, 18 at
    step 38).
    """

    batch = 32

    def prepare(self, seed, loaded, checks):
        ds, (model,) = loaded
        self.seed = seed
        self.dataset, self.model = ds, model
        self.initial = [p.data for p in model.param_list()]
        self.check_nonzero(model, model.reconstruct(ds.splits["train"][1][:3]).data,
                           checks)

    def _restore(self, params):
        # Adam rebinds p.data to a new array, so the initial arrays stay intact
        for p, data in zip(params, self.initial):
            p.data = data

    def run(self, step_clock):
        self._restore(self.model.param_list())
        config = training.TrainConfig(epochs=20, batch_size=self.batch,
                                      lr0=1e-3, seed=self.seed)
        patches = _hook_train(step_clock, self._restore)
        try:
            training.train(self.model, self.dataset, config)
        except StopRun:
            pass
        finally:
            patches.undo()


class EvalWorkload(Workload):
    """``training.evaluate`` on B=256 batches, cycling the models in order."""

    batch = 256

    def __init__(self, pairs):
        super().__init__(pairs)
        self.unit = len(pairs)

    def prepare(self, seed, loaded, checks):
        ds, self.models = loaded
        pool_x = np.concatenate([ds.splits["val"][0], ds.splits["test"][0]])
        pool_y = np.concatenate([ds.splits["val"][1], ds.splits["test"][1]])
        order = np.random.default_rng(
            np.random.SeedSequence([int(seed), 0xba])).permutation(len(pool_x))
        self.pool_x, self.pool_y = pool_x[order], pool_y[order]
        for model in self.models:
            y = self.pool_y[:3]
            batched = model.reconstruct(y).data
            worst = max(float(np.max(np.abs(model.reconstruct(y[i]).data - batched[i])))
                        for i in range(len(y)))
            checks.expect(worst <= BATCH_TOL,
                          f"batched vs per-sample {model.variant}-{model.momentum}: "
                          f"{worst:.3e}")
            self.check_nonzero(model, batched, checks)

    def _batch(self, j):
        lo = (j * self.batch) % len(self.pool_x)
        idx = np.arange(lo, lo + self.batch) % len(self.pool_x)
        return self.pool_x[idx], self.pool_y[idx]

    def run(self, step_clock):
        j = 0
        while True:
            model = self.models[j % len(self.models)]
            x, y = self._batch(j)
            step_clock.begin()
            stats = training.evaluate(model, x, y, batch_size=self.batch)
            stop = step_clock.end()
            step_clock.outputs.append(stats.per_sample)
            j += 1
            if stop:
                return


def _mini_gradcheck(variant, momentum, seed):
    """Worst relative error of tape vs central-difference gradients, and its draw.

    The miniature (operator, weights, signals) is drawn from the workload
    seed.  A central difference across a PReLU kink averages two slopes
    instead of taking the derivative, so a draw where any of the ±h
    evaluations flips the sign of a PReLU input is discarded and the next
    one is drawn.  After MINI_DRAWS discarded draws the error is inf.
    """
    for draw in range(MINI_DRAWS):
        worst, crossed = _mini_draw(variant, momentum, seed, draw)
        if not crossed:
            return worst, draw
    return float("inf"), None


def _mini_draw(variant, momentum, seed, draw):
    """(worst relative error, whether a difference crossed a PReLU kink)."""
    mini_seed = int(np.random.SeedSequence([int(seed), draw, 0x6d]).generate_state(1)[0])
    op = volterra.make_operator(A, seed=mini_seed, n=11, k=5, stride=3)
    model = unrolling.UnrollModel.build(variant, momentum, op, unroll=2, width=3,
                                        n_primal=2, n_dual=2, lstm_hidden=4,
                                        seed=mini_seed)
    _perturb(model, mini_seed, 0, sigma=MINI_SIGMA)
    rng = np.random.default_rng(np.random.SeedSequence([mini_seed, 0x6c]))
    x = rng.normal(size=(2, op.n))
    y = volterra.forward(op, x)
    params = model.param_list()

    def loss():
        diff = autodiff.sub(model.reconstruct(y), autodiff.Tensor(x))
        return autodiff.sum_all(autodiff.mul(diff, diff))

    signs = []
    base_prelu = autodiff.prelu

    def prelu(x, slope):
        signs.append(autodiff.as_tensor(x).data < 0)
        return base_prelu(x, slope)

    patches = Patches()
    patches.everywhere(base_prelu, prelu)
    try:
        with autodiff.Tape() as tape:
            tape.watch(*params)
            grads = autodiff.backward(loss(), params)
        base_signs = list(signs)
        crossed = False

        def loss_at(*arrs):
            nonlocal crossed
            for p, a in zip(params, arrs):
                p.data = a
            signs.clear()
            value = float(loss().data)
            crossed = crossed or any(np.any(a != b) for a, b in zip(signs, base_signs))
            return value

        arrays = [p.data for p in params]
        worst = max(gradcheck.rel_error(grads[p], gradcheck.fd_gradient(loss_at, arrays, i,
                                                                         h=GRAD_H))
                    for i, p in enumerate(params))
    finally:
        patches.undo()
    return worst, crossed


EVAL_PAIRS = (("lpgd", "none"), ("lpgd", "rma"), ("lpgdsw", "ma"),
              ("lpd", "none"), ("lpd", "rma"))

WORKLOADS = {
    "train-lpd-rma": TrainWorkload((("lpd", "rma"),)),
    "train-lpgd-none": TrainWorkload((("lpgd", "none"),)),
    "eval-mix": EvalWorkload(EVAL_PAIRS),
}
