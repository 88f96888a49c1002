"""End-to-end training: Adam + cosine schedule + global clipping.

One run is single-threaded and fully determined by its seed: epoch
shuffles derive from (seed, epoch), and the returned parameters are the
ones with the lowest validation loss seen at any epoch boundary.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .autodiff import ShapeError, Tape, as_tensor, backward, mul, scale, sub, sum_all
from .layers import Adam, CosineSchedule, clip_global_norm


class TrainingDiverged(RuntimeError):
    """A loss, gradient norm or validation loss became non-finite.

    Carries the step, rate and gradient norm of the last step taken or
    attempted, and ``epoch`` when the validation loss diverged.
    """

    def __init__(self, step, lr, grad_norm, epoch=None):
        what = "loss or gradient" if epoch is None else \
            f"validation loss after epoch {epoch}"
        super().__init__(
            f"non-finite {what} at step {step} "
            f"(lr={lr:.3e}, grad_norm={grad_norm})")
        self.step = step
        self.lr = lr
        self.grad_norm = grad_norm
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr0: float = 1e-3
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch size must be positive")
        # written so that NaN fails each test
        if not 0.0 < self.lr0 < np.inf:
            raise ValueError("initial learning rate must be positive and finite")
        if not self.clip_norm > 0:  # inf: no clipping
            raise ValueError("gradient clip norm must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")
        if not 0.0 < self.eps < np.inf:
            raise ValueError("Adam eps must be positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got seed={self.seed}")


@dataclass
class TrainHistory:
    steps: list = field(default_factory=list)       # (step, epoch, lr, loss)
    val_losses: list = field(default_factory=list)  # one per epoch
    best_epoch: int = -1
    best_val: float = np.inf
    epoch_seconds: list = field(default_factory=list)

    def to_csv(self, path):
        steps_per_epoch = len(self.steps) // max(len(self.val_losses), 1)
        with atomic_write(path) as fh:
            fh.write("step,epoch,lr,train_loss,val_loss\n")
            for step, epoch, lr, loss in self.steps:
                last_of_epoch = (step + 1) % steps_per_epoch == 0
                val = repr(self.val_losses[epoch]) if last_of_epoch else ""
                fh.write(f"{step},{epoch},{lr!r},{loss!r},{val}\n")


def mse_loss(xhat, target):
    """Mean over samples of the per-element squared error (a scalar tensor)."""
    target = as_tensor(target)
    if xhat.data.shape != target.data.shape:
        raise ShapeError(
            f"mse_loss: shape mismatch {xhat.data.shape} vs {target.data.shape}")
    diff = sub(xhat, target)
    return scale(sum_all(mul(diff, diff)), 1.0 / diff.data.size)


@dataclass
class EvalStats:
    mean: float
    std: float
    per_sample: np.ndarray


def evaluate(model, x, y, batch_size=256):
    """Per-sample mean squared error over a split; std uses n-1 weighting."""
    if len(x) == 0:
        raise ValueError("cannot evaluate an empty split")
    errs = np.empty(len(x))
    for lo in range(0, len(x), batch_size):
        hi = min(lo + batch_size, len(x))
        xhat = model.reconstruct(y[lo:hi])
        errs[lo:hi] = ((xhat.data - x[lo:hi]) ** 2).mean(axis=1)
    std = float(errs.std(ddof=1)) if len(errs) > 1 else 0.0
    return EvalStats(mean=float(errs.mean()), std=std, per_sample=errs)


def _epoch_order(seed, epoch, count):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), epoch, 0xe7]))
    return rng.permutation(count)


def subsample_train(dataset, fraction, seed):
    """Deterministically thin the training split to a fraction of itself."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    x, y = dataset.splits["train"]
    keep = max(1, int(round(len(x) * fraction)))
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5b]))
    idx = np.sort(rng.permutation(len(x))[:keep])
    return x[idx], y[idx]


def train(model, dataset, config):
    """Optimize the model on the dataset's train split; leaves the best
    parameters loaded.  Returns the TrainHistory.
    """
    if model.operator.fingerprint() != dataset.operator.fingerprint():
        raise ValueError("model and dataset use different operators")
    x_train, y_train = dataset.splits["train"]
    x_val, y_val = dataset.splits["val"]

    params = model.param_list()
    opt = Adam(params, beta1=config.beta1, beta2=config.beta2, eps=config.eps)
    steps_per_epoch = (len(x_train) + config.batch_size - 1) // config.batch_size
    sched = CosineSchedule(config.lr0, config.epochs * steps_per_epoch)

    history = TrainHistory()
    best = None
    step = 0
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        order = _epoch_order(config.seed, epoch, len(x_train))
        for lo in range(0, len(x_train), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            lr = sched.rate(step)
            with Tape() as tape:
                tape.watch(*params)
                xhat = model.reconstruct(y_train[idx])
                loss = mse_loss(xhat, x_train[idx])
                grads = backward(loss, params)
            grad_list = [grads[p] for p in params]
            clipped, norm = clip_global_norm(grad_list, config.clip_norm)
            loss_value = float(loss.data)
            # a NaN norm never exceeds the clip bound, so clipping passes it on
            if not (np.isfinite(loss_value) and np.isfinite(norm)):
                raise TrainingDiverged(step, lr, norm)
            opt.step(clipped, lr)
            history.steps.append((step, epoch, lr, loss_value))
            step += 1
        val = evaluate(model, x_val, y_val, batch_size=config.batch_size).mean
        # a NaN never compares below best_val, so it would pass silently
        if not np.isfinite(val):
            raise TrainingDiverged(step - 1, lr, norm, epoch=epoch)
        history.val_losses.append(val)
        history.epoch_seconds.append(time.perf_counter() - tic)
        if val < history.best_val:
            history.best_val = val
            history.best_epoch = epoch
            best = [p.data.copy() for p in params]
    if best is not None:
        for p, data in zip(params, best):
            p.data = data
    return history
