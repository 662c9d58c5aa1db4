"""Benchmark of bandctrl's certified solves.

    python3 bench/run.py --workload {cli_batch,transfer_n256,newton_affine}
                         --seed N --seconds S --trace {0,1}

One process, one client in a closed loop: each operation starts when the
previous one has returned.  The loop runs whole rounds of the workload's
instance list until ``--seconds`` have passed.  Every operation's output is
checked with ``checks.py``; only the operation itself is timed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same loop
with spans recorded around bandctrl's public functions and prints the
per-layer metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy, and in a traced
run the spans, go to ``bench/out/``.  BLAS and OpenMP are pinned to one
thread (see README.md).
"""

import os

# must precede the first numpy import, here and in the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # extra processes that only set up, for a median of set-up time
MAX_REPORTED_ERRORS = 20
WORKLOADS = ("cli_batch", "transfer_n256", "newton_affine")


def _import_bandctrl():
    """Import bandctrl from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bandctrl
        import bandctrl.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import bandctrl from {src}: {exc}")
    if src.resolve() not in Path(bandctrl.__file__).resolve().parents:
        sys.exit(f"bench: bandctrl imported from {bandctrl.__file__}, not from {src}")
    return bandctrl


def _timed_op(workload, inst):
    """Run one operation; returns (ok, output, seconds)."""
    start = time.perf_counter()
    try:
        ok, output = workload.run(inst)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, None, time.perf_counter() - start
    return ok, output, time.perf_counter() - start


def _checked(workload, inst, output) -> list[str]:
    try:
        return workload.check(inst, output)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def _setup_probes(args) -> list[float]:
    """Set-up time of fresh processes that import, generate and warm up."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _jacobian_probe(bandctrl, newton_call) -> float:
    """Seconds for one analytic residual Jacobian at a Newton solve's final iterate."""
    (spec, x0, xf, *_), _, shot = newton_call
    traj, lift = shot.trajectory, shot.lift
    z = bandctrl.StackedUnknowns.pack(traj.states[1:-1], traj.controls, lift.adjoints, lift.nu)
    start = time.perf_counter()
    bandctrl.residual_jacobian(z, spec, x0, xf)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # set-up: imports plus warm-up, without the generation of inputs
    start = time.perf_counter()
    bandctrl = _import_bandctrl()
    import workloads
    import_s = time.perf_counter() - start

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, bandctrl, str(OUT / f"tmp-{os.getpid()}"))
    try:
        insts = workload.instances(args.seed)
        start = time.perf_counter()
        for inst in workload.warmup(insts):
            _timed_op(workload, inst)
        setup_s = import_s + time.perf_counter() - start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, bandctrl, workload, insts, setup_s)
    finally:
        if hasattr(workload, "close"):
            workload.close()


def _measure(args, bandctrl, workload, insts, setup_s) -> int:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    times, errors, result_bytes = [], [], 0
    attempted = failed = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        for inst in insts:
            if tracer:
                tracer.begin(attempted)
            ok, output, seconds = _timed_op(workload, inst)
            if tracer:
                tracer.end()
            attempted += 1
            if not ok:
                failed += 1
                continue
            times.append(seconds)
            errors += _checked(workload, inst, output)
            if tracer and hasattr(workload, "result_bytes"):
                result_bytes += workload.result_bytes(inst)
        if time.perf_counter() - start >= args.seconds:
            break
    if hasattr(workload, "rerun_check"):
        errors += workload.rerun_check(insts)

    if tracer:
        recorded = tracer.spans
        metrics = {k: (v, _unit(k)) for k, v in spans.layer_metrics(recorded, attempted).items()}
        metrics["cli.result_kb"] = (result_bytes / 1024.0 / attempted, "KB")
        metrics["trace.solve_p50_ms"] = (1e3 * statistics.median(times), "ms") if times else (0.0, "ms")
        # one more pass, untimed: tracemalloc peaks inside lq, Jacobian probes
        tracer.spans, tracer.measure_memory = [], True
        jacobian_s = []
        for inst in insts:
            tracer.last_newton = None
            tracer.begin(-1)
            _timed_op(workload, inst)
            tracer.end()
            if tracer.last_newton is not None:
                jacobian_s.append(_jacobian_probe(bandctrl, tracer.last_newton))
        metrics["lq.traced_peak_mb"] = (spans.peak_memory_mb(tracer.spans), "MB")
        metrics["shooting.jacobian_ms"] = (1e3 * statistics.fmean(jacobian_s) if jacobian_s else 0.0, "ms")
        tracer.uninstall()
        _dump(OUT / f"trace-{args.workload}-s{args.seed}.json",
              {"names": spans.NAME_FIELDS, "spans": recorded})
    else:
        metrics = {
            "solves_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
            "solve_p50_ms": (1e3 * statistics.median(times) if times else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics["setup_s"] = (statistics.median([setup_s] + _setup_probes(args)), "s")

    for err in errors[:MAX_REPORTED_ERRORS]:
        print(f"bench: check failed: {err}", file=sys.stderr)
    report = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _dump(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", report)
    print(json.dumps(report))
    return 0


def _unit(name: str) -> str:
    suffix = name.replace(".", "_").rsplit("_", 1)[-1]
    return {"ms": "ms", "calls": "count", "iterations": "count", "evals": "count",
            "gflop": "GFLOP", "mb": "MB", "rel": "ratio"}[suffix]


def _dump(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    sys.exit(main())
