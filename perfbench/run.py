"""Benchmark runner for flowzip. Run from the root of a checkout:

    python3 perfbench/run.py --workload int-batch --seed 1 --seconds 30 --trace 0

One process, one caller, a closed loop: the next operation starts when the
previous one has returned. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced operations and
prints the per-layer metrics with the tracing overhead. The last stdout line is the result object; a fuller record
(machine, fixture facts, input digest) goes to ``perfbench/results/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5  # setup_s is the median of this many full set-ups
REFERENCE_SEED = 20220617  # fixed input of the byte-identity container
REFERENCE_COUNT = 64  # one int-batch container


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_flowzip():
    """Put the checkout's own sources first on the path; fail without them."""
    if not os.path.isfile(os.path.join(SRC, "flowzip", "__init__.py")):
        sys.exit(f"perfbench: no flowzip sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import flowzip

    if os.path.dirname(os.path.abspath(flowzip.__file__)) != os.path.join(SRC, "flowzip"):
        sys.exit(f"perfbench: imported flowzip from {flowzip.__file__}, not {SRC}")


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


class Loop:
    """Runs operations back to back and counts attempts and failures."""

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.attempted = self.failed = 0
        self.i = 0

    def one(self, op_fn):
        self.attempted += self.workload.steps
        try:
            op = op_fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += self.workload.steps
            return None
        self.failed += op.failed
        return op if op.failed == 0 else None

    def next(self):
        op = self.one(lambda: self.workload.op(self.state, self.i))
        self.i += 1
        return op

    def run(self, seconds: float, min_ops: int = 1) -> list:
        ops = []
        start = time.perf_counter()
        n = 0
        while n < min_ops or time.perf_counter() - start < seconds:
            op = self.next()
            n += 1
            if op is not None:
                ops.append(op)
        return ops


def reference(cfg) -> dict:
    """The fixture's facts, and the byte-identity gate: the digest of a fixed
    int-batch-sized container on the int path, identical in every run of a commit."""
    from flowzip import codec
    from flowzip.data import gen_synth

    from fixture import build_model, digest, facts
    from spans import Tracer

    model = build_model(cfg, 5)
    images = gen_synth(REFERENCE_SEED, REFERENCE_COUNT)
    with Tracer() as tracer:
        container, stats = codec.compress(images, model, "int")
    return {
        **facts(model, cfg),
        "container_digest": digest(container),
        "mass_tables_per_container": tracer.stats["rans.mass_table"][0],
        "coding_bpd": stats["coding_bpd"],
        "analytic_bpd": stats["analytic_bpd"],
    }


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def end_to_end(workload, state, ops, setup_times) -> tuple[dict, dict]:
    forward_ms = [1e3 * op.forward_s for op in ops]
    reverse_ms = [1e3 * op.reverse_s for op in ops]
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "forward_ms_p90": (p90(forward_ms), "ms"),
        "reverse_ms_p90": (p90(reverse_ms), "ms"),
        "bpd": (workload.bpd(state, ops), "bit/dim"),
    }
    images = sum(op.images for op in ops)
    op_ms = [f + r for f, r in zip(forward_ms, reverse_ms)]
    detail = {
        "ops": len(ops),
        "setup_s_all": setup_times,
        "forward_img_s": 1e3 * images / sum(forward_ms) if ops else 0.0,
        "reverse_img_s": 1e3 * images / sum(reverse_ms) if ops else 0.0,
        "op_ms_p50": median(op_ms),
        "op_s": [[op.forward_s, op.reverse_s] for op in ops],
    }
    if len(op_ms) >= 200:
        detail["op_ms_p95"] = statistics.quantiles(op_ms, n=20)[-1]
    steps = {}
    for op in ops:
        for name, s in op.step_s.items():
            steps.setdefault(name, []).append(1e3 * s)
    detail.update({f"step_{name}_ms_p50": median(v) for name, v in steps.items()})
    return metrics, detail


def per_layer(workload_name, loop, seconds) -> tuple[dict, dict, list]:
    """Alternate untraced and traced operations, so that both sample the
    same machine conditions, and report the traced ones per operation."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(loop.next())
        with tracer:
            traced.append(loop.next())
    plain = [op for op in plain if op is not None]
    traced = [op for op in traced if op is not None]
    n = max(len(traced), 1)
    metrics = tracer.metrics(n)
    metrics["rans.payload_bytes"] = (sum(op.payload_bytes for op in traced) / n, "bytes")
    t_plain = median([op.forward_s + op.reverse_s for op in plain])
    t_traced = median([op.forward_s + op.reverse_s for op in traced])
    overhead = 100.0 * (t_traced / t_plain - 1.0) if t_plain else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    detail = {"ops_untraced": len(plain), "ops_traced": len(traced)}
    return metrics, detail, tracer.uncovered(workload_name)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_flowzip()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    workload = WORKLOADS[args.workload]

    setup_times = []
    for _ in range(SETUPS if args.trace == 0 else 1):
        t0 = time.perf_counter()
        state = workload.setup(ROOT, args.seed)
        setup_times.append(time.perf_counter() - t0)

    loop = Loop(workload, state)
    loop.one(lambda: workload.warm_up(state))
    problems = []
    if args.trace == 0:
        ops = loop.run(args.seconds, workload.min_ops)
        metrics, detail = end_to_end(workload, state, ops, setup_times)
    else:
        metrics, detail, uncovered = per_layer(args.workload, loop, args.seconds)
        problems += [f"span recorded no calls: {name}" for name in uncovered]

    try:
        ref = reference(state.cfg)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ref = {}
        problems.append("the reference container could not be compressed")
    if loop.failed:
        problems.append(f"{loop.failed} of {loop.attempted} operations failed")
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": problems,
        "inputs_digest": state.inputs_digest,
        "fixture": ref,
        "detail": detail,
        "machine": machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"perfbench: wrote {os.path.relpath(out_path, ROOT)}")
    print(f"perfbench: container_digest={ref.get('container_digest')} inputs_digest={state.inputs_digest}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
