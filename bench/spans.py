"""Span tracing around bandctrl's public functions, from outside the package.

``Tracer.install`` replaces each traced function, in its defining module and
in every bandctrl module that imported a reference to it, with a wrapper that
records a span: name, start, end, parent span and operation id, plus a few
counters taken from the arguments or the return value.  ``numpy.linalg.solve``
and ``lstsq`` are wrapped the same way, so every dense factorization is
counted with its dimensions.  Spans stay in memory until the run ends.

Self time of a layer span is its duration minus the durations of the layer
spans directly below it; factorization spans are not subtracted, so a
solver's self time includes its dense solves.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc

import numpy as np

# (defining module, function); the span name is "<module>.<function>"
TRACED = (
    ("bandctrl.spectrum", "build_dft_matrix"),
    ("bandctrl.spectrum", "forward_dft"),
    ("bandctrl.spectrum", "build_frequency_constraint"),
    ("bandctrl.spectrum", "numerical_rank"),
    ("bandctrl.spectrum", "uncertainty_check"),
    ("bandctrl.problem", "validate"),
    ("bandctrl.problem", "rollout"),
    ("bandctrl.problem", "trajectory_cost"),
    ("bandctrl.problem", "lti_spec"),
    ("bandctrl.problem", "control_affine_spec"),
    ("bandctrl.extremal", "verify_pmp"),
    ("bandctrl.extremal", "lift_from_solver"),
    ("bandctrl.extremal", "classify_normality_freq"),
    ("bandctrl.extremal", "classify_normality_classic"),
    ("bandctrl.lq", "riccati_solve"),
    ("bandctrl.lq", "lq_pmp_solve"),
    ("bandctrl.lq", "lq_transfer_solve"),
    ("bandctrl.lq", "lq_transfer_freq_solve"),
    ("bandctrl.shooting", "newton_solve"),
    ("bandctrl.shooting", "default_initialization"),
    ("bandctrl.shooting", "residual_jacobian"),
    ("bandctrl.cli", "main"),
    ("bandctrl.cli", "run"),
    ("bandctrl.cli", "parse_problem"),
)
MODULES = ("bandctrl", "bandctrl.spectrum", "bandctrl.problem", "bandctrl.extremal",
           "bandctrl.lq", "bandctrl.shooting", "bandctrl.cli")
MB = float(2 ** 20)

NAME_FIELDS = ("name", "start", "end", "parent", "op", "extra")
NAME, START, END, PARENT, OP, EXTRA = range(6)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _solve_extra(args, kwargs):
    d = np.shape(args[0])[0]
    k = int(np.prod(np.shape(args[1])[1:])) if np.ndim(args[1]) > 1 else 1
    return {"flop": 2.0 * d ** 3 / 3.0 + 2.0 * d * d * k, "bytes": 8.0 * d * d}


def _lstsq_extra(args, kwargs):
    rows, cols = np.shape(args[0])
    small, big = min(rows, cols), max(rows, cols)
    # SVD-based least squares (LAPACK gelsd): about 4 big small^2 + 8 small^3
    return {"flop": 4.0 * big * small ** 2 + 8.0 * small ** 3, "bytes": 8.0 * rows * cols}


def _transfer_extra(args, kwargs, result):
    xf = np.asarray(_arg(args, kwargs, 6, "xf"), dtype=float)
    if result.status.value != "SOLVED":
        return None
    return {"gap_rel": result.endpoint_gap / (1.0 + float(np.max(np.abs(xf))))}


def _newton_extra(args, kwargs, result):
    # each accepted step of length 2^-k took k + 1 residual evaluations
    evals = 1 + sum(1 + round(-np.log2(alpha)) for _, _, alpha in result.trace[1:])
    return {"iterations": result.iterations, "residual_evals": evals}


# counters read from the arguments (recorded even when the call raises)
ARG_EXTRAS = {"linalg.solve": _solve_extra, "linalg.lstsq": _lstsq_extra}
# counters read from the return value
RESULT_EXTRAS = {
    "lq.lq_transfer_solve": _transfer_extra,
    "lq.lq_transfer_freq_solve": _transfer_extra,
    "shooting.newton_solve": _newton_extra,
}


class Tracer:
    """Records spans for calls made while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.measure_memory = False
        self.last_newton = None
        self._patches = []

    def install(self) -> None:
        targets = [(importlib.import_module(mod), mod.rsplit(".", 1)[1] + "." + fn, fn) for mod, fn in TRACED]
        targets += [(np.linalg, "linalg.solve", "solve"), (np.linalg, "linalg.lstsq", "lstsq")]
        modules = [importlib.import_module(mod) for mod in MODULES] + [np.linalg]
        for home, name, attr in targets:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def begin(self, op: int) -> None:
        self.op = op
        self.active = True

    def end(self) -> None:
        self.active = False

    def _wrap(self, name, fn):
        arg_fn = ARG_EXTRAS.get(name)
        result_fn = RESULT_EXTRAS.get(name)
        is_lq = name.startswith("lq.")
        is_newton = name == "shooting.newton_solve"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            extra = arg_fn(args, kwargs) if arg_fn else None
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, extra]
            self.spans.append(span)
            self.stack.append(index)
            tracing_memory = self.measure_memory and is_lq and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
                if tracing_memory:
                    span[EXTRA] = {"peak": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if result_fn is not None:
                extra = result_fn(args, kwargs, result)
                if extra is not None:
                    span[EXTRA] = {**(span[EXTRA] or {}), **extra}
            if is_newton:
                self.last_newton = (args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of one traced loop."""
    dur = [s[END] - s[START] for s in spans]
    below = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0 and not s[NAME].startswith("linalg."):
            below[s[PARENT]] += dur[i]

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        total[s[NAME]] = total.get(s[NAME], 0.0) + dur[i]
        self_time[s[NAME]] = self_time.get(s[NAME], 0.0) + dur[i] - below[i]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def family_sum(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    factor = {"lq": [0, 0.0, 0.0, 0.0], "shooting": [0, 0.0, 0.0, 0.0]}
    gaps, iterations, evals = [], 0, 0
    for i, s in enumerate(spans):
        if s[NAME].startswith("linalg.") and s[PARENT] >= 0:
            family = spans[s[PARENT]][NAME].split(".")[0]
            if family in factor:
                acc = factor[family]
                acc[0] += 1
                acc[1] += dur[i]
                acc[2] += s[EXTRA]["flop"]
                acc[3] = max(acc[3], s[EXTRA]["bytes"])
        elif s[EXTRA] and "gap_rel" in s[EXTRA]:
            gaps.append(s[EXTRA]["gap_rel"])
        elif s[EXTRA] and "iterations" in s[EXTRA]:
            iterations += s[EXTRA]["iterations"]
            evals += s[EXTRA]["residual_evals"]

    per_op = 1.0 / n_ops
    ms = 1e3 * per_op
    return {
        "spectrum.build_ms": total.get("spectrum.build_frequency_constraint", 0.0) * ms,
        "spectrum.dft_ms": total.get("spectrum.forward_dft", 0.0) * ms,
        "spectrum.dft_matrix_calls": calls.get("spectrum.build_dft_matrix", 0) * per_op,
        "spectrum.rank_calls": calls.get("spectrum.numerical_rank", 0) * per_op,
        "spectrum.rank_ms": total.get("spectrum.numerical_rank", 0.0) * ms,
        "problem.validate_ms": self_time.get("problem.validate", 0.0) * ms,
        "problem.rollout_ms": total.get("problem.rollout", 0.0) * ms,
        "extremal.verify_ms": total.get("extremal.verify_pmp", 0.0) * ms,
        "extremal.classify_calls": family_sum(calls, "extremal.classify_") * per_op,
        "extremal.classify_ms": family_sum(total, "extremal.classify_") * ms,
        "lq.solve_ms": family_sum(self_time, "lq.") * ms,
        "lq.factor_calls": factor["lq"][0] * per_op,
        "lq.factor_ms": factor["lq"][1] * ms,
        "lq.factor_gflop": factor["lq"][2] * 1e-9 * per_op,
        "lq.max_system_mb": factor["lq"][3] / MB,
        "lq.endpoint_gap_rel": statistics.median(gaps) if gaps else 0.0,
        "shooting.newton_ms": self_time.get("shooting.newton_solve", 0.0) * ms,
        "shooting.init_ms": total.get("shooting.default_initialization", 0.0) * ms,
        "shooting.iterations": iterations * per_op,
        "shooting.residual_evals": evals * per_op,
        "shooting.factor_gflop": factor["shooting"][2] * 1e-9 * per_op,
        "cli.parse_ms": total.get("cli.parse_problem", 0.0) * ms,
        "cli.run_self_ms": self_time.get("cli.run", 0.0) * ms,
    }


def peak_memory_mb(spans) -> float:
    """Largest tracemalloc peak over the lq spans of a memory-probe pass."""
    peaks = [s[EXTRA]["peak"] for s in spans if s[EXTRA] and "peak" in s[EXTRA]]
    return max(peaks) / MB if peaks else 0.0
