"""Run one dunets benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-lpd-rma --seed 1 --seconds 32 --trace 0

``--trace 0`` times steps for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` runs steps untraced for part of the window, replays
the same steps with every dunets layer wrapped in spans, checks that both
produce the same bits, and reports per-layer metrics and the tracing
overhead; the spans go to ``.perfbench_out/``.

The last line of stdout is one JSON object (correct, attempted, failed,
metrics).  The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import envstamp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPS = 9          # set-up runs per measured run; setup_s is their median
WARMUP_STEPS = 2        # untimed steps before timing (at least one whole unit)
TRACE_SPLIT = 0.45      # share of --seconds for the untraced half of a traced run
MIN_COVERAGE = 0.9      # layer self times must cover this share of a step


def metric_units():
    """Units of the (end-to-end, per-layer) metrics, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_dunets():
    """Import dunets from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import dunets
    if not os.path.abspath(dunets.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dunets loaded from {dunets.__file__}, not {SRC}")


def guarded(checks, what, fn, *args):
    """Run one closed-loop segment; an exception is a failed operation."""
    try:
        fn(*args)
    except Exception as exc:  # a failing step must still yield a report
        traceback.print_exc(file=sys.stderr)
        checks.expect(False, f"{what} raised {type(exc).__name__}: {exc}")


def run(args, pin, workdir):
    import numpy as np
    from hostspeed import Reference, scaled
    from tracer import Tracer
    from workloads import EVAL_PAIRS, WORKLOADS, Checks, StepClock, same_bits

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    e2e_units, layer_units = metric_units()
    checks = Checks()
    checks.expect(pin["pinned"], "BLAS threads pinned before numpy loaded")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}

    t0 = time.perf_counter()
    detail["gradcheck"] = wl.gradcheck(args.seed, checks)
    detail["gradcheck_s"] = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    reference = Reference()
    setup_times, setup_refs = [], [reference.time()]
    for _ in range(1 if tracer else SETUP_REPS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            fresh, loaded, sizes = wl.setup(args.seed, workdir)
        finally:
            if tracer:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)
        setup_refs.append(reference.time())
        wl.check_roundtrips(fresh, loaded, checks)
        del fresh
    detail["setup_times_s"] = setup_times
    detail["setup_reference_s"] = setup_refs
    wl.prepare(args.seed, loaded, checks)

    warm = StepClock(unit=wl.unit, max_steps=max(wl.unit, WARMUP_STEPS))
    guarded(checks, "warm-up", wl.run, warm)

    if not tracer:
        timed = StepClock(unit=wl.unit, deadline=time.perf_counter() + args.seconds,
                          reference=reference)
        before = resource.getrusage(resource.RUSAGE_SELF)
        guarded(checks, "timed run", wl.run, timed)
        after = resource.getrusage(resource.RUSAGE_SELF)
        detail.update(minor_faults=after.ru_minflt - before.ru_minflt,
                      kernel_s=after.ru_stime - before.ru_stime)
        wl.check_outputs(timed, checks)
        checks.expect(len(timed.outputs) >= len(warm.outputs) and all(
            same_bits(a, b) for a, b in zip(warm.outputs, timed.outputs)),
            "rerun from the same state repeats the warm-up outputs")
        times = (np.array(scaled(timed.times, timed.ref_times)) if timed.times
                 else np.full(1, np.inf))
        p90 = float(np.percentile(times, 90))
        metrics = {
            "samples_per_s": wl.batch * len(times) / float(times.sum()),
            "step_ms_p50": float(np.median(times)) * 1e3,
            "step_ms_p90": p90 * 1e3,
            "setup_s": statistics.median(scaled(setup_times, setup_refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = e2e_units
        detail.update(steps=len(timed.times), above_p90=int((times > p90).sum()),
                      wall_step_ms_p50=statistics.median(timed.times or [0.0]) * 1e3,
                      validation_s=timed.val_s, step_times_s=timed.times,
                      reference_s=timed.ref_times)
    else:
        plain = StepClock(unit=wl.unit,
                          deadline=time.perf_counter() + TRACE_SPLIT * args.seconds)
        guarded(checks, "untraced run", wl.run, plain)
        n = max(len(plain.times), 1)
        traced = StepClock(unit=wl.unit, max_steps=n, tracer=tracer)
        tracer.install()
        try:
            guarded(checks, "traced run", wl.run, traced)
        finally:
            tracer.uninstall()
        wl.check_outputs(plain, checks)
        wl.check_outputs(traced, checks)
        checks.expect(len(plain.outputs) == len(traced.outputs) and all(
            same_bits(a, b) for a, b in zip(plain.outputs, traced.outputs)),
            "traced outputs match untraced outputs bit for bit")
        metrics = tracer.layer_metrics(n, [f"{v}-{m}" for v, m in EVAL_PAIRS])
        metrics.update(sizes)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced.times) / statistics.median(plain.times) - 1.0
            if plain.times and traced.times else 0.0)
        checks.expect(metrics["trace.self_coverage"] >= MIN_COVERAGE,
                      f"layer self times cover {metrics['trace.self_coverage']:.3f} "
                      f"of step time (< {MIN_COVERAGE})")
        units = layer_units
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(spans)
        detail.update(steps=n, spans_file=os.path.relpath(spans, ROOT),
                      untraced_times_s=plain.times, traced_times_s=traced.times)

    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    detail["failures"] = checks.failures
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    pin = envstamp.pin_blas()
    pin["malloc_heap"] = envstamp.pin_malloc()
    load_dunets()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result, detail = run(args, pin, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["env"] = envstamp.stamp(pin)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"{args.workload}: {detail['steps']} steps, "
          f"{result['failed']}/{result['attempted']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})"
          + (f", {detail['above_p90']} above p90, wall-clock step p50 "
             f"{detail['wall_step_ms_p50']:.1f} ms" if "above_p90" in detail else ""))
    for failure in detail["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
