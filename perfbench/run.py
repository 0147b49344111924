#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of phaseless (numpy backend).

    python3 perfbench/run.py --workload trial-4096-exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run sets up ``SETUP_REPEATS`` times, times operations for
``--seconds`` and prints the end-to-end metrics. With ``--trace 1`` it sets
up once under tracing, then alternates untraced and traced rounds of the
same inputs for ``--seconds``, and prints the per-layer metrics and the
tracing overhead. Times are CPU seconds of the process (see tracing.py).
The last line of standard output is one JSON object; the lines before it
stamp the environment and list every metric with its unit. ``--workload
all`` runs each workload in a process of its own. Results and span traces
are also written to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("trial-4096-exact", "decode-65536-tail", "prony-64-k8")

END_TO_END = {
    "setup_s": "s",
    "trial_s": "s",
    "recoveries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "measurements": "rows",
}

# per-layer metric -> (unit, span name, what to add up per span)
PER_LAYER = {
    "kernels.sample_s": ("s", "kernels.sample", "seconds"),
    "kernels.sample_entries": ("count", "kernels.sample", "entries"),
    "kernels.sort_s": ("s", "kernels.sort", "seconds"),
    "kernels.sort_entries": ("count", "kernels.sort", "entries"),
    "kernels.apply_s": ("s", "kernels.apply", "seconds"),
    "kernels.apply_entries": ("count", "kernels.apply", "entries"),
    "ensemble.build_s": ("s", "ensemble.build", "seconds"),
    "ensemble.build_A_s": ("s", "ensemble.build_A", "seconds"),
    "ensemble.build_B_s": ("s", "ensemble.build_B", "seconds"),
    "ensemble.build_E_s": ("s", "ensemble.build_E", "seconds"),
    "ensemble.build_F_s": ("s", "ensemble.build_F", "seconds"),
    "ensemble.sense_s": ("s", "ensemble.sense", "seconds"),
    "ensemble.nnz": ("count", "ensemble.build", "nnz"),
    "ensemble.bytes": ("B", None, None),
    "sketch.identify_s": ("s", "sketch.identify", "seconds"),
    "sketch.estimate_s": ("s", "sketch.estimate", "seconds"),
    "sketch.candidates": ("count", "decoder.decode", "candidates"),
    "sketch.candidate_yield": ("ratio", None, None),
    "decoder.decode_s": ("s", "decoder.decode", "seconds"),
    "decoder.tail_s": ("s", "decoder.tail", "seconds"),
    "decoder.prune_s": ("s", "decoder.prune", "seconds"),
    "decoder.self_s": ("s", "decoder.decode", "self"),
    "decoder.touches": ("count", "decoder.decode", "touches"),
    "decoder.kept": ("count", "decoder.decode", "kept"),
    "signs.graph_s": ("s", "signs.graph", "seconds"),
    "signs.cluster_s": ("s", "signs.cluster", "seconds"),
    "signs.pair_rows": ("count", "signs.graph", "pair_rows"),
    "signs.edges": ("count", "signs.graph", "edges"),
    "signs.edge_yield": ("ratio", None, None),
    "prony.recover_s": ("s", "prony.recover", "seconds"),
    "prony.search_s": ("s", "prony.recover", "self"),
    "prony.solve_s": ("s", "prony.solve", "seconds"),
    "prony.solve_calls": ("count", "prony.solve", "calls"),
    "prony.measure_s": ("s", "prony.measure", "seconds"),
    "trace.overhead_pct": ("%", None, None),
}


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, else the count this run set."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return int(BLAS_THREADS)


def environment() -> dict:
    import numpy

    import phaseless

    return {"kernel_backend": phaseless.kernel_backend,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "blas_threads": blas_threads()}


def end_to_end(outcomes, setup_s: float) -> dict:
    done = [o for o in outcomes if not o.failed]
    return {
        "setup_s": setup_s,
        "trial_s": statistics.median(o.seconds for o in outcomes),
        "recoveries_per_s": sum(o.recovered for o in outcomes)
        / sum(o.seconds for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "measurements": statistics.fmean(o.rows for o in done) if done else 0.0,
    }


def per_layer(tracer, traced, plain) -> dict:
    """Per-layer figures from the spans of one traced run.

    A layer that ran inside the traced operations is reported per
    operation; one that ran only in set-up is reported per set-up.
    Recursive calls of one layer (a span whose parent has its name) are
    counted once, through the outermost call.
    """
    spans = tracer.spans
    own = tracer.self_seconds()
    outer = [i for i, s in enumerate(spans)
             if s.parent is None or spans[s.parent].name != s.name]

    def total(name: str, what: str) -> float:
        picked = [i for i in outer if spans[i].name == name]
        in_ops = [i for i in picked if spans[i].op is not None]
        per = len(traced) if in_ops else 1
        value = {"seconds": lambda i: spans[i].seconds,
                 "self": lambda i: own[i],
                 "calls": lambda i: 1}.get(what, lambda i: spans[i].counts.get(what, 0))
        return sum(value(i) for i in (in_ops or picked)) / per

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {name: total(span, what) for name, (_, span, what) in PER_LAYER.items()
         if span is not None}
    m["ensemble.bytes"] = (total("ensemble.build", "bytes")
                           + total("kernels.sort", "bytes"))
    m["sketch.candidate_yield"] = ratio(total("decoder.decode", "hits"),
                                        m["sketch.candidates"])
    m["signs.edge_yield"] = ratio(m["signs.edges"], m["signs.pair_rows"])
    m["trace.overhead_pct"] = 100.0 * (
        statistics.median(o.seconds for o in traced)
        / statistics.median(o.seconds for o in plain) - 1.0)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # workloads imports numpy, so the BLAS thread count is fixed before it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    from tracing import Tracer, clock
    from workloads import WORKLOADS, install_probes, measure, measure_paired
    import_s = clock()   # CPU time since the process started

    workload = WORKLOADS[name](seed)
    spans = None
    if not trace:
        # set-up time = import + median of what every set-up repeats + what
        # only the first set-up does (sensing the decode batch)
        repeated, once = [], 0.0
        for _ in range(SETUP_REPEATS):
            start = clock()
            first_only = workload.setup()
            repeated.append(clock() - start - first_only)
            once += first_only
        outcomes = measure(workload, seconds)
        metrics = end_to_end(outcomes, import_s + once + statistics.median(repeated))
        units = END_TO_END
    else:
        tracer = Tracer()
        install_probes(tracer)
        try:
            workload.setup(tracer)
            plain, traced = measure_paired(workload, seconds, tracer)
        finally:
            tracer.unwrap_all()
        outcomes = plain + traced
        metrics = per_layer(tracer, traced, plain)
        units = {k: v[0] for k, v in PER_LAYER.items()}
        spans = tracer.to_json()

    problem = workload.run_check(outcomes)
    failed = [o for o in outcomes if o.failed]
    env = environment()
    report = {"correct": problem is None, "attempted": len(outcomes),
              "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    detail = dict(report, workload=name, seed=seed, seconds=seconds,
                  environment=env, run_check=problem,
                  errors=sorted({o.error for o in failed})[:10])
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2))
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))

    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# {name}: attempted {report['attempted']}, failed "
          f"{report['failed']}" + (f", check failed: {problem}" if problem else ""))
    for k, v in report["metrics"].items():
        print(f"# {name} {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(report))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=1800)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "phaseless" / "__init__.py").is_file():
        sys.stderr.write(f"phaseless sources not found under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
