"""Per-layer tracing of nclil from outside the package.

The traced run replaces public functions of the nclil modules with
wrappers, everywhere a module holds a reference to them (``lil`` and
``martingales`` both hold ``sample_step_increments``, for example), and
puts every original back afterwards.

Coarse boundaries (CLI commands, experiments, sweeps, generators, the
certificate search) become spans with a parent.  Hot leaves
(``Operator.__init__``, the eigen-solvers, conditional expectations)
only add to per-layer counters and accumulated time, because a span
record per call would cost more than the call.  Either way a frame's
self time is its duration minus the time its direct children cover, so
the per-layer self times add up to the traced wall time without double
counting.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MARK = "__perfbench_original__"


class Frame:
    __slots__ = ("layer", "name", "start", "covered", "span_id", "parent_id")

    def __init__(self, layer, name, start, span_id, parent_id):
        self.layer = layer
        self.name = name
        self.start = start
        self.covered = 0.0      # time covered by direct children
        self.span_id = span_id
        self.parent_id = parent_id


class Tracer:
    """Frame stack, span records and per-layer counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.spans: list[dict] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)

    def enter(self, layer: str, name: str, span: bool) -> Frame:
        parent = self.stack[-1] if self.stack else None
        span_id = len(self.spans) if span else None
        if span:
            self.spans.append(None)         # slot filled when the span closes
        frame = Frame(layer, name, self.clock(), span_id,
                      parent.span_id if parent is not None else None)
        self.stack.append(frame)
        return frame

    def exit(self, frame: Frame) -> None:
        end = self.clock()
        if self.stack.pop() is not frame:
            raise RuntimeError("trace frames closed out of order")
        duration = end - frame.start
        own = duration - frame.covered
        self.calls[frame.layer] += 1
        self.self_s[frame.layer] += own
        if self.stack:
            self.stack[-1].covered += duration
        if frame.span_id is not None:
            self.spans[frame.span_id] = {
                "id": frame.span_id, "parent": frame.parent_id, "layer": frame.layer,
                "name": frame.name, "start": frame.start, "end": end, "self_s": own}

    def call(self, layer, name, span, fn, args, kwargs, on_result):
        frame = self.enter(layer, name, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.exit(frame)
        if on_result is not None:
            on_result(self.counts, args, kwargs, result)
        return result


# ---------------------------------------------------------------- counters
# Each hook reads the arguments and the result of one call and adds exact
# work counts; none of them changes what the call returns.

def _count_increments(counts, args, kwargs, result):
    counts["martingales.increments.bytes"] += result.nbytes


def _count_lil(counts, args, kwargs, report):
    cfg = args[0] if args else kwargs["cfg"]
    if getattr(report, "engine", None) == "streaming-ensemble":
        counts["lil.path_steps"] += report.blocks[-1].k_end * cfg.paths
    elif hasattr(report, "per_path"):           # scalar baseline
        counts["lil.path_steps"] += report.window[1] * cfg.paths


def _count_certificate(counts, args, kwargs, result):
    counts["inequalities.certificate.iterations"] += result.iterations


def _count_doob(counts, args, kwargs, check):
    counts["inequalities.doob.checks"] += 1
    counts["inequalities.doob.held"] += check.holds
    counts["inequalities.doob.inconclusive"] += check.verdict == "inconclusive-certificate"


def _count_trials(counts, args, kwargs, result):
    counts["verify.trials"] += len({(r.get("kind"), r.get("trial")) for r in result.rows})


def _count_spectral(counts, args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    if not x.diagonal:
        counts["operators.spectral.work_dim3"] += x.dim ** 3


# (module, function name, layer, span?, counter hook)
TARGETS = [
    ("nclil.verify", "sweep_ce", "verify", True, _count_trials),
    ("nclil.verify", "sweep_expineq", "verify", True, _count_trials),
    ("nclil.verify", "sweep_doob", "verify", True, _count_trials),
    ("nclil.verify", "sweep_dual_doob", "verify", True, _count_trials),
    ("nclil.verify", "sweep_chebyshev", "verify", True, _count_trials),
    ("nclil.lil", "run_lil_experiment", "lil", True, _count_lil),
    ("nclil.lil", "scalar_kolmogorov_baseline", "lil", True, _count_lil),
    ("nclil.martingales", "gen_tensor_martingale", "martingales.generate", True, None),
    ("nclil.martingales", "gen_model_martingale", "martingales.generate", True, None),
    ("nclil.martingales", "gen_diagonal_martingale", "martingales.generate", True, None),
    ("nclil.martingales", "sample_step_increments", "martingales.increments", False,
     _count_increments),
    ("nclil.inequalities", "column_maximal_norm_bounds", "inequalities.certificate", True,
     _count_certificate),
    ("nclil.inequalities", "probc_upper", "inequalities.probc", True, None),
    ("nclil.inequalities", "doob_consequence_check", "inequalities.doob", True, _count_doob),
    ("nclil.inequalities", "exp_moment_sides", "inequalities.expmoment", False, None),
    ("nclil.filtration", "conditional_expectation", "filtration.ce", False, None),
    ("nclil.operators", "eigenvalues", "operators.spectral", False, _count_spectral),
    ("nclil.operators", "singular_values", "operators.spectral", False, _count_spectral),
    ("nclil.operators", "spectral_decomposition", "operators.spectral", False,
     _count_spectral),
]


def _wrap(tracer, layer, name, span, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, name, span, fn, args, kwargs, hook)
    setattr(wrapper, MARK, fn)
    return wrapper


class Instrumented:
    """Context manager that installs the wrappers and always removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple] = []       # (owner, attribute, original)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "nclil" or n.startswith("nclil.")) and m is not None]
        for modname, fname, layer, span, hook in TARGETS:
            fn = getattr(sys.modules[modname], fname)
            wrapper = _wrap(self.tracer, layer, fname, span, fn, hook)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self.patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        operator = sys.modules["nclil.operators"].Operator
        init = operator.__init__
        self.patched.append((operator, "__init__", init))
        operator.__init__ = _wrap(self.tracer, "operators.construct", "Operator.__init__",
                                  False, init, None)

    def _restore(self):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of nclil attributes that still hold a trace wrapper."""
    found = []
    for n, mod in sorted(sys.modules.items()):
        if mod is None or not (n == "nclil" or n.startswith("nclil.")):
            continue
        for attr, val in vars(mod).items():
            if hasattr(val, MARK):
                found.append(f"{n}.{attr}")
            if isinstance(val, type):
                for cattr, cval in vars(val).items():
                    if hasattr(cval, MARK):
                        found.append(f"{n}.{attr}.{cattr}")
    return found
