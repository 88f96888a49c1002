"""The tracer's counts are exact: they repeat bit for bit and match hand counts.

    python3 -m pytest -q perfbench/test_counts.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from dunets import unrolling, volterra  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Checks, StepClock, TrainWorkload, _perturb  # noqa: E402

COUNT_SUFFIXES = (".calls", "tape_records", ".flops", "_bytes",
                  "pull_discarded_frac", "spans_per_step")
B, N, W = 32, 11, 4     # batch, signal length, conv width of the tiny models


def traced_counts(variant, momentum, seed, steps=2):
    """Count metrics of ``steps`` traced train steps of a T=2 model."""
    ds = volterra.gen_dataset(1.0, counts=(2 * B, 8, 8), seed=seed, n=N, k=5,
                              stride=3)
    model = unrolling.UnrollModel.build(variant, momentum, ds.operator, unroll=2,
                                        width=W, n_primal=2, n_dual=2,
                                        lstm_hidden=3, seed=seed)
    _perturb(model, seed, 0)
    workload = TrainWorkload(((variant, momentum),))
    checks = Checks()
    workload.prepare(seed, (ds, [model]), checks)
    assert not checks.failures
    tracer = Tracer()
    tracer.install()
    try:
        workload.run(StepClock(max_steps=steps, tracer=tracer))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(steps, [f"{variant}-{momentum}"])
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def calls(counts):
    return {k[:-len(".calls")]: v for k, v in counts.items()
            if k.endswith(".calls") and v}


def test_counts_repeat_exactly():
    first = traced_counts("lpd", "rma", seed=1)
    assert traced_counts("lpd", "rma", seed=1) == first
    # counts depend on shapes only, not on the drawn data or weights
    assert traced_counts("lpd", "rma", seed=2) == first


def test_lpgd_none_hand_counts():
    counts = traced_counts("lpgd", "none", seed=0)
    # per iteration: data_grad = forward + sub + vjp; reshape x and d to
    # channels, concat them; ConvStack (2->4->4->1) = 3 conv1d + 2 prelu;
    # reshape the step and add it.  mse_loss adds sub, mul, sum_all, scale.
    assert calls(counts) == {
        "autodiff.conv1d": 6, "autodiff.prelu": 4, "autodiff.concat_channels": 2,
        "autodiff.reshape": 6, "autodiff.add": 2, "autodiff.sub": 3,
        "autodiff.mul": 1, "autodiff.scale": 1, "autodiff.sum_all": 1,
        "volterra.forward": 2, "volterra.vjp": 2, "volterra.data_grad": 2,
        "layers.ConvStack": 2,
    }
    # t=0 starts from an untracked zero iterate, so only its 5 conv/prelu
    # ops, the step reshape and the add record; t=1 records all 13 ops.
    assert counts["autodiff.tape_records"] == 7 + 13 + 4
    # 47 input gradients pulled; 4 go to untracked inputs: the mse target,
    # the observation in t=1's residual, t=0's zero iterate and its features.
    assert counts["autodiff.pull_discarded_frac"] == 4 / 47
    macs = B * N * 3 * (W * 2 + W * W + 1 * W) * 2      # 3 convs, 2 iterations
    assert counts["autodiff.conv1d.flops"] == 2 * macs + 4 * macs


def test_lpd_rma_hand_counts():
    counts = traced_counts("lpd", "rma", seed=0)
    # per iteration: 3 slices (x2, x1, u1); 5 reshapes (x2, F(x2), x1, u1, d);
    # dual ConvStack (2 conv1d, 1 prelu), fusion conv, primal ConvStack
    # (3 conv1d, 2 prelu); one LSTM cell = 8 matvec + 8 add + 1 tanh +
    # 3 sigmoid, cell update 2 mul + 1 add, hidden 1 mul + 1 tanh, output
    # map 1 matvec + 1 add; plus the dual and primal residual adds.  Once per
    # call: the observation reshape and the final slice + reshape.
    assert calls(counts) == {
        "autodiff.slice_channels": 7, "autodiff.reshape": 12,
        "autodiff.concat_channels": 4, "autodiff.conv1d": 12,
        "autodiff.prelu": 6, "autodiff.add": 24, "autodiff.matvec": 18,
        "autodiff.tanh": 4, "autodiff.sigmoid": 6, "autodiff.mul": 7,
        "autodiff.sub": 1, "autodiff.scale": 1, "autodiff.sum_all": 1,
        "volterra.forward": 2, "volterra.vjp": 2,
        "layers.ConvStack": 4, "layers.LstmStack": 2,
    }
