"""distreg benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload register-bins --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it sets the workload up several times (``setup_s`` is the
median), then cycles through the parts of the workload's pass (at least
``min_passes`` passes) until about ``--seconds`` have been measured, checks
every output, and prints the end-to-end metrics. With ``--trace 1`` it runs
one pass untraced and one pass traced with wrappers around each layer's
public functions, checks that both give identical outputs, and prints the
per-layer metrics and the tracing overhead; the spans go to
``.bench_trace/`` in the checkout.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A line before it holds
the full record: machine facts, input sizes, the workload's own named
figures and sample counts. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: one thread keeps timings steadier on a
# small shared host, and gives the same loss digits as two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S seconds of
# it are measured (at most SETUP_MAX_REPEATS times): a short set-up needs
# more repeats for a steady median on a noisy host
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 4.0, 9


def _import_program():
    """Import distreg from this checkout's sources, never from elsewhere."""
    if not (SRC / "distreg" / "__init__.py").is_file():
        sys.exit(f"benchmark: no distreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import distreg

    if Path(distreg.__file__).resolve().parent != (SRC / "distreg").resolve():
        sys.exit(f"benchmark: imported distreg from {distreg.__file__}, not {SRC}")


def _blas_facts(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"),
             "threads_env": BLAS_THREADS, "threads": None}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                break
    return facts


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts():
    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas_facts(np)}


def _spread(values):
    values = sorted(values)
    if not values:
        return {"n": 0, "p50": 0.0}
    out = {"n": len(values), "p50": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        # highest percentile with at least ten samples beyond it
        pct = int(100 * (1 - 10 / len(values)))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def _setup(workload):
    """Sets up repeatedly; returns the last state, the times, and whether
    every set-up gave the same inputs."""
    times, first, same = [], None, True
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S
                                         and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
        first = state["digest"] if first is None else first
        same = same and state["digest"] == first
    return state, times, same


def _repeats(units, attr):
    """Every repeat of every key of the per-unit timing dicts."""
    out = {}
    for u in units:
        for key, seconds in getattr(u, attr).items():
            out.setdefault(key, []).append(seconds)
    return out


def run_pass(workload, state):
    """One pass over all parts, as one unit."""
    from workloads import Unit

    return Unit.merge([workload.run_unit(state, part) for part in workload.parts(state)])


def run_timed(workload, seconds):
    from workloads import Unit

    state, setup_times, setup_repeatable = _setup(workload)
    parts = workload.parts(state)
    first_pass, units, rows = [], [], {}
    measured, repeatable = 0.0, True
    # Stop at the part boundary nearest to `seconds`, after min_passes passes.
    while (len(units) < workload.min_passes * len(parts)
           or measured + 0.5 * measured / len(units) < seconds):
        part = parts[len(units) % len(parts)]
        t0 = time.perf_counter()
        u = workload.run_unit(state, part)
        measured += time.perf_counter() - t0
        u.failed += workload.check(u)
        repeatable = repeatable and rows.setdefault(part, u.rows) == u.rows
        units.append(u)
        if len(first_pass) < len(parts):
            first_pass.append(u)
            if len(first_pass) == len(parts):
                whole = Unit.merge(first_pass)
                quality, inputs = workload.quality(whole), workload.inputs(state, whole)
                for done in (whole, *first_pass):
                    done.extra = {}
        else:
            # drop bulky outputs once checked and compared, so that peak
            # memory does not grow with the number of units that fit in the time
            u.extra, u.rows = {}, []
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)

    # An operation's time is the median of its repeats, and latency is the
    # median over operations. Throughput divides a pass's work by the sum of
    # the mean times of the parts that make it up. Both average over the whole
    # run: on a shared host single timings spread widely and their minimum
    # is no steadier, while means over tens of seconds repeat.
    latency = _spread([statistics.median(v) for v in _repeats(units, "latencies").values()])
    pass_seconds = sum(statistics.fmean(v) for v in _repeats(units, "work_parts").values())
    throughput = whole.work / pass_seconds if pass_seconds else 0.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_ratio": (1.0 - failed / attempted, "ratio"),
        "latency_s.p50": (latency["p50"], "s"),
        "throughput_per_s": (throughput, "1/s"),
        "quality": (quality, "ratio"),
    }
    record = {
        "setup_s": _spread(setup_times),
        "latency_s": latency,
        "passes": len(units) / len(parts),
        "pass_s": pass_seconds,
        "measured_s": measured,
        "named": workload.named(whole, latency["p50"], throughput),
        "inputs": inputs,
        "setup_repeatable": setup_repeatable,
        "units_repeatable": repeatable,
    }
    correct = failed == 0 and repeatable and setup_repeatable
    return correct, attempted, failed, metrics, record


def run_traced(workload, trace_path):
    from tracer import Tracer

    state = workload.setup()
    with Tracer() as setup_trace:
        traced_state = workload.setup()
    t0 = time.perf_counter()
    plain = run_pass(workload, state)
    plain_wall = time.perf_counter() - t0
    inputs = workload.inputs(state, plain)
    plain.failed += workload.check(plain)
    with Tracer() as trace:
        t0 = time.perf_counter()
        traced = run_pass(workload, traced_state)
        traced_wall = time.perf_counter() - t0
    traced.failed += workload.check(traced)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    identical = plain.rows == traced.rows and state["digest"] == traced_state["digest"]

    trace_path.parent.mkdir(exist_ok=True)
    trace_path.unlink(missing_ok=True)
    setup_trace.write(trace_path, "setup")
    trace.write(trace_path, "unit")

    own = trace.self_times()
    c = trace.counts
    steps = c["pipeline.pair_loss_and_grads.calls"]
    ransac_calls = c["register.ransac_register.calls"]
    overlap_calls = c["geometry.overlap_ratio.calls"]
    figures = workload.figures(plain)

    def s(name):
        return (own.get(name, 0.0), "s")

    metrics = {
        "register.ransac_register.self_s": s("register.ransac_register"),
        "register.matches": (c["register.matches"] / ransac_calls if ransac_calls else 0.0, "count"),
        "register.inlier_ratio": (c["register.inliers"] / c["register.matches"]
                                  if c["register.matches"] else 0.0, "ratio"),
        "register.ransac.hypotheses_configured": (c["register.ransac.hypotheses_configured"], "count"),
        "register.match_features.self_s": s("register.match_features"),
        "register.recall_far": figures.get("register.recall_far", (0.0, "ratio")),
        "pipeline.register_pair.self_s": s("pipeline.register_pair"),
        "model.encoder_forward.self_s": s("model.encoder_forward"),
        "model.points_encoded": (c["model.points_encoded"], "count"),
        "geometry.voxel_downsample.self_s": s("geometry.voxel_downsample"),
        "model.encoder_forward_cached.self_s": s("model.encoder_forward_cached"),
        "model.encoder_backward.self_s": s("model.encoder_backward"),
        "model.decoder_forward_cached.self_s": s("model.decoder_forward_cached"),
        "model.decoder_backward.self_s": s("model.decoder_backward"),
        "model.backward.self_s": s("model.backward"),
        "model.fuse.self_s": s("model.fuse"),
        "losses.chamfer.self_s": s("losses.chamfer"),
        "losses.hardest_contrastive.self_s": s("losses.hardest_contrastive"),
        "losses.l2_offset_reg.self_s": s("losses.l2_offset_reg"),
        "pipeline.pair_loss_and_grads.self_s": s("pipeline.pair_loss_and_grads"),
        "pipeline.train.self_s": s("pipeline.train"),
        "train.loss_last_epoch": figures.get("train.loss_last_epoch", (0.0, "loss")),
        "geometry.NeighborIndex.build_s": s("geometry.NeighborIndex.build"),
        "geometry.NeighborIndex.builds": (c["geometry.NeighborIndex.build.calls"], "count"),
        "geometry.knearest.self_s": s("geometry.knearest"),
        "geometry.knearest.queries": (c["geometry.knearest.queries"], "count"),
        "geometry.nearest.self_s": s("geometry.nearest"),
        "aggregate.generate_apc.calls": (c["aggregate.generate_apc.calls"], "count"),
        "aggregate.generate_apc.self_s": s("aggregate.generate_apc"),
        "aggregate.apc_points": (c["aggregate.apc_points"], "count"),
        "aggregate.apc_cache_hit_ratio": (1.0 - c["aggregate.generate_apc.calls"] / (2 * steps)
                                          if steps else 0.0, "ratio"),
        "dataio.distill_records.self_s": s("dataio.distill_records"),
        "geometry.overlap_ratio.calls": (overlap_calls, "count"),
        "geometry.overlap_ratio.self_s": s("geometry.overlap_ratio"),
        "dataio.distill.emitted": (c["dataio.distill.emitted"], "count"),
        "dataio.distill.useful_ratio": (c["dataio.distill.emitted"] / overlap_calls
                                        if overlap_calls else 0.0, "ratio"),
        "dataio.load_dataset.self_s": s("dataio.load_dataset"),
        "dataio.bytes_read": (c["dataio.bytes_read"], "B"),
        "simulate.simulate_sequence.self_s": (setup_trace.self_times().get(
            "simulate.simulate_sequence", 0.0), "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "ops_failed_ratio": (failed / attempted, "ratio"),
    }
    record = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(setup_trace.spans) + len(trace.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "traced_identical": identical,
        "inputs": inputs,
    }
    return failed == 0 and identical, attempted, failed, metrics, record


def main(argv=None):
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            trace_path = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
            result = run_traced(workload, trace_path)
        else:
            result = run_timed(workload, args.seconds)
    correct, attempted, failed, metrics, record = result

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine_facts())
    for name, (value, unit) in {**metrics, **record.get("named", {})}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
