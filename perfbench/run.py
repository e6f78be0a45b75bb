#!/usr/bin/env python3
"""velometer benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --write-spec            # regenerate BENCHMARK.json

Run from the repository root. It imports velometer from ``src/`` of the same
checkout, pins BLAS/OpenMP to one thread, loads (or first simulates) the
workload's inputs, times the set-up several times, then repeats the
workload's fixed pass as often as fits in ``--seconds`` (rounded to the
nearest whole number of passes, at least one).
With ``--trace 1`` it instead runs one untraced and one traced pass and
reports per-layer metrics. The report goes to stdout; its last line is one
JSON object with the keys correct, attempted, failed and metrics. Details,
digests and the velocity outputs go to ``perfbench/results/``.

Inputs do not depend on ``--seed``: every seed runs the same seed-0
sequences, and the seed only permutes the order in which a pass runs them.
README.md says why.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = (
    ("realtime_factor", "s/s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
RUN_SECONDS = 30


def _blas_info(np):
    """BLAS name, version and the thread count it actually runs with."""
    import ctypes
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _src_loc():
    pkg = os.path.join(SRC, "velometer")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def _environment(np):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_loc": _src_loc(),
    }


def _rtf(outcomes):
    return sum(o.wall_s for o in outcomes) / sum(o.data_s for o in outcomes)


def _timed_pass(wl, state, rng, details):
    """One pass; its wall and CPU times go to the run's details."""
    cpu0, t0 = os.times(), time.perf_counter()
    outcomes = wl.run_pass(state, rng.permutation(wl.items))
    wall, cpu1 = time.perf_counter() - t0, os.times()
    details.setdefault("pass_wall_s", []).append(wall)
    details.setdefault("pass_cpu_user_s", []).append(cpu1.user - cpu0.user)
    details.setdefault("pass_cpu_sys_s", []).append(cpu1.system - cpu0.system)
    return outcomes, wall


def _inconsistent(passes):
    """Sequences whose outputs differ between the passes of one run."""
    first, bad = {}, []
    for outcomes in passes:
        for o in outcomes:
            if first.setdefault(o.name, o.digests) != o.digests:
                bad.append(f"{o.name}: outputs differ between passes")
    return bad


def _untraced(wl, seconds, rng):
    setup_times, state = [], None
    for _ in range(wl.setup_repeats):
        state = None                     # free the previous copy first
        t0 = time.perf_counter()
        state = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    details = {"setup_s_samples": setup_times}
    outcomes, wall = _timed_pass(wl, state, rng, details)
    passes = [outcomes]
    # as many passes as fit in `seconds`, rounded to the nearest whole number
    for _ in range(max(1, round(seconds / wall)) - 1):
        passes.append(_timed_pass(wl, state, rng, details)[0])
    units = {name: unit for name, unit, _, _ in END_TO_END}
    metrics = {
        "realtime_factor": statistics.median(_rtf(p) for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details["pass_realtime_factor"] = [_rtf(p) for p in passes]
    return {k: (v, units[k]) for k, v in metrics.items()}, passes, details


def _traced(wl, rng):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = wl.setup()
    finally:
        tracer.uninstall()
    details = {}
    untraced, wall_off = _timed_pass(wl, state, rng, details)
    tracer.install()
    try:
        traced, wall_on = _timed_pass(wl, state, rng, details)
    finally:
        tracer.uninstall()
    values, unmeasured = tracing.layer_metrics(tracer)
    values["trace.overhead_frac"] = wall_on / wall_off - 1.0
    values["trace.overhead_est_frac"] = (len(tracer.spans)
                                         * tracing.wrapper_cost_s() / wall_on)
    values["trace.spans"] = float(len(tracer.spans))
    units = {m[0]: m[1] for m in tracing.LAYER_METRICS + tracing.TRACE_METRICS}
    metrics = {k: (v, units[k]) for k, v in values.items()}
    details["unmeasured"] = unmeasured
    return metrics, [untraced, traced], details


def _save_outputs(workload, passes):
    import numpy as np
    out_dir = os.path.join(RESULTS_DIR, "outputs", workload)
    os.makedirs(out_dir, exist_ok=True)
    for o in passes[0]:
        if o.t is not None:
            np.savez(os.path.join(out_dir, f"{o.name}.npz"), t=o.t, v=o.v)


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args):
    import numpy as np
    import velometer
    if not os.path.abspath(velometer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"velometer imported from {velometer.__file__}, "
                         f"not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    fill_s = workloads.ensure_inputs()
    rng = np.random.default_rng(args.seed)
    if args.trace:
        metrics, passes, details = _traced(wl, rng)
    else:
        metrics, passes, details = _untraced(wl, args.seconds, rng)
    outcomes = [o for p in passes for o in p]
    failed = sum(o.status in workloads.OPERATION_FAILURES for o in outcomes)
    problems = _inconsistent(passes) + [
        f"{o.name}: {o.status}: {o.detail}" for o in outcomes
        if o.status in workloads.OPERATION_FAILURES]
    info = wl.summarize(passes)
    env = _environment(np)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  why: {wl.why}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']['name']} {env['blas']['version']} with "
          f"{env['blas']['threads']} thread(s), nproc {env['nproc']}, "
          f"src LOC {env['src_loc']} (informational)")
    if fill_s:
        print(f"cache_fill_s = {fill_s:.3f} s (simulated missing inputs; "
              f"not part of setup_s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {_fmt(value)} {unit}")
    for name, (value, unit, note) in info.items():
        print(f"{name} = {_fmt(value)} {unit}  [{note}]")
    for o in passes[0]:
        print(f"  {o.name}: {o.status} {o.detail}; wall {o.wall_s:.3f} s for "
              f"{o.data_s:g} s of data; "
              + ", ".join(f"sha256 {k} {v}" for k, v in o.digests.items()))
    for name, reason in details.get("unmeasured", {}).items():
        print(f"unmeasured {name}: {reason}")
    for p in problems:
        print(f"CHECK FAILED {p}")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    _save_outputs(args.workload, passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "cache_fill_s": fill_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "informational": {k: {"value": v, "unit": u, "note": n}
                          for k, (v, u, n) in info.items()},
        "sequences": [[{"name": o.name, "status": o.status, "detail": o.detail,
                        "wall_s": o.wall_s, "data_s": o.data_s,
                        "digests": o.digests, **o.extra} for o in p]
                      for p in passes],
        "details": details, "problems": problems,
    }
    path = os.path.join(RESULTS_DIR,
                        f"{args.workload}.seed{args.seed}.trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps({
        "correct": not problems, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def write_spec():
    sys.path.insert(0, SRC)
    import tracing
    import workloads
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": m[0], "unit": m[1], "better": m[2]}
                      for m in tracing.LAYER_METRICS + tracing.TRACE_METRICS],
    }
    with open(SPEC_PATH, "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")
    return 0


def run_all(args):
    """Every workload in turn, each in its own child process."""
    rc = 0
    for name in ("pipeline", "backend-long", "simulate-export"):
        rc |= subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--workload", name, "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)]).returncode
    return rc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=("pipeline", "backend-long", "simulate-export", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="rewrite BENCHMARK.json from the metric tables")
    args = ap.parse_args(argv)

    # One BLAS/OpenMP thread, set before numpy loads: the estimator is
    # single-threaded, and the velocity digest depends on the thread count.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "velometer", "__init__.py")):
        print(f"error: no velometer sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_spec:
        return write_spec()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
