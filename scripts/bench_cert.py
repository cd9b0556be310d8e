#!/usr/bin/env python3
"""Time the certificate layers of the dense LIL engine, the doob sweep and the dense
``Operator`` routines on their own.

The families are those of the benchmark's ``dense`` workload
(``lil-run --model tensor:2:8 --horizon 8 --eta 1.2 --allow-uncertified``,
model generator, seed 0).  They are recorded from one run of
``run_lil_experiment``, whose ``probc_upper`` calls come in pairs per
nonempty block: the block family r_m, m = k_n+1 .. k_{n+1}, then the
prefix family x_1 .. x_{k_{n+1}}, each with its threshold.  One pass
times, per family kind (block, prefix):

- ``certificate``: ``column_maximal_norm_bounds(family, p=4)``;
- ``probc``: ``probc_upper`` against that certificate.

A separate counting pass wraps ``numpy.linalg.eigvalsh`` and reports the
matrices it solves (a call on a stack solves several) and its seconds by
the dimension of those matrices, which is the stored dimension of the
operator.

The ``doob`` layer takes the 24 families x_1 .. x_n of
``verify-doob --trials-per-kind 8`` (seed 0), recorded from one sweep,
and searches each with ``column_maximal_norm_bounds`` at p = 4, 6, 8, the
sweep's p values.  ``doob.cold`` clears the search's one-entry memo
before every p, so each call descends from scratch; ``doob.shared``
clears it only before each family's first p, so the other two walk the
first call's iterates.  Both report their ``_feasibilize`` calls per pass.

The ``screen`` count takes one shared doob pass and sorts every dense
domination gap the search asks for by the block dimension it is solved
at: cleared by the Cholesky screen, or sent to ``eigvalsh``.  Diagonal
families take exact row minima and are not screened.

The ``operator`` layer times the dense ``Operator`` routines on their
own: ``Operator(h, hermitian=True)``, ``symmetrize`` and ``eigenvalues``
of a hermitian block h at each dimension of ``OPERATOR_DIMS``, in
microseconds per call, over a batch of max(4, 2**18 // dim**2) calls a
pass.  ``generator_peak_mib`` is the tracemalloc peak of a second
``gen_model_martingale`` and ``gen_tensor_martingale`` call at
``tensor:2:8`` (unit bounds), whose level-8 blocks are 256 x 256.

Every layer runs on one OpenBLAS thread, as the engines and sweeps do
(``config.blas_threads`` is 1, or null where no OpenBLAS could be pinned),
so a second numpy process on the cores does not slow a pass by spinning
threads.  Seconds are per pass, as the median and min/max over
``--repeats`` passes, with the environment stamp of ``perfbench/envstamp.py``.

    PYTHONPATH=src python scripts/bench_cert.py --repeats 5 --out cert.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import envstamp  # noqa: E402
import nclil  # noqa: E402
from nclil import (AlgebraModel, LILParameters, LILRunConfig,  # noqa: E402
                   run_lil_experiment)
from nclil import inequalities, lil, verify  # noqa: E402
from nclil.inequalities import (column_maximal_norm_bounds,  # noqa: E402
                                doob_consequence_check, probc_upper)
from nclil.martingales import (gen_model_martingale,  # noqa: E402
                               gen_tensor_martingale)
from nclil.operators import (Operator, _one_blas_thread, eigenvalues,  # noqa: E402
                             symmetrize)
from nclil.rng import stream_rng  # noqa: E402

LAYERS = ("certificate.block", "certificate.prefix", "probc.block", "probc.prefix")
WORKLOAD = "lil-run --model tensor:2:8 --horizon 8 --eta 1.2 --allow-uncertified --seed 0"
DOOB_WORKLOAD = "verify-doob --trials-per-kind 8 --seed 0"
DOOB_PS = (4.0, 6.0, 8.0)
OPERATOR_DIMS = (16, 64, 256)
GENERATOR_MODEL = AlgebraModel("tensor", 2, 8)


def dense_families() -> list:
    """(kind, family, threshold) for every block of the dense workload's run."""
    cfg = LILRunConfig(params=LILParameters(eta=1.2), horizon=8, seed=0,
                       model=AlgebraModel("tensor", 2, 8), strict=False)
    calls = []

    def recording(xs, t, dominator):
        calls.append((list(xs), t))
        return probc_upper(xs, t, dominator)

    lil.probc_upper = recording
    try:
        run_lil_experiment(cfg)
    finally:
        lil.probc_upper = probc_upper
    return [(("block", "prefix")[i % 2], xs, t) for i, (xs, t) in enumerate(calls)]


def doob_families() -> list:
    """x_1 .. x_n of every trial of the doob sweep, as its Doob checks see them."""
    paths = []

    def recording(path, p):
        paths.append(path)
        return doob_consequence_check(path, p)

    verify.doob_consequence_check = recording
    try:
        verify.sweep_doob(trials_per_kind=8, ps=DOOB_PS[:1], seed=0)
    finally:
        verify.doob_consequence_check = doob_consequence_check
    return [[path.partial(i) for i in range(1, path.horizon + 1)] for path in paths]


def doob_pass(families: list, shared: bool) -> tuple:
    """(seconds, _feasibilize calls) of one search of every family at every p."""
    calls = [0]
    feasibilize = inequalities._feasibilize

    def counted(*args):
        calls[0] += 1
        return feasibilize(*args)

    inequalities._feasibilize = counted
    spent = 0.0
    try:
        for family in families:
            for j, p in enumerate(DOOB_PS):
                if j == 0 or not shared:
                    inequalities._last_descent = None
                t0 = time.perf_counter()
                column_maximal_norm_bounds(family, p)
                spent += time.perf_counter() - t0
    finally:
        inequalities._feasibilize = feasibilize
    return spent, calls[0]


def screen_pass(families: list) -> dict:
    """{dim: {"cleared", "eigvalsh"}} of the dense gaps of one shared doob pass."""
    by_dim = defaultdict(lambda: {"cleared": 0, "eigvalsh": 0})
    screened = inequalities._screened_gaps

    def counted(a, cons, live=None):
        gaps = screened(a, cons, live)
        if cons.ndim == 3:
            entry = by_dim[cons.shape[-1]]
            cleared = int(np.isinf(gaps).sum())
            entry["cleared"] += cleared
            entry["eigvalsh"] += len(gaps) - cleared
        return gaps

    inequalities._screened_gaps = counted
    try:
        doob_pass(families, shared=True)
    finally:
        inequalities._screened_gaps = screened
    return {str(dim): by_dim[dim] for dim in sorted(by_dim)}


def timed_pass(families: list) -> dict:
    spent = dict.fromkeys(LAYERS, 0.0)
    for kind, family, thr in families:
        t0 = time.perf_counter()
        cb = column_maximal_norm_bounds(family, p=4.0)
        t1 = time.perf_counter()
        probc_upper(family, thr, cb.certificate)
        spent[f"certificate.{kind}"] += t1 - t0
        spent[f"probc.{kind}"] += time.perf_counter() - t1
    return spent


def eigvalsh_pass(families: list) -> dict:
    """{dim: [matrices, seconds]} of the eigvalsh calls made by one timed pass."""
    by_dim = defaultdict(lambda: [0, 0.0])
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        t0 = time.perf_counter()
        out = original(a, *args, **kwargs)
        entry = by_dim[int(np.shape(a)[-1])]
        entry[0] += int(np.prod(np.shape(a)[:-2]))
        entry[1] += time.perf_counter() - t0
        return out

    np.linalg.eigvalsh = counted
    try:
        timed_pass(families)
    finally:
        np.linalg.eigvalsh = original
    return dict(by_dim)


def operator_pass(blocks: dict) -> dict:
    """{routine: {dim: microseconds per call}} of one pass over the blocks."""
    spent = {"construct": {}, "symmetrize": {}, "eigenvalues": {}}
    for dim, h in blocks.items():
        x = Operator(h, hermitian=True)
        calls = max(4, 2 ** 18 // dim ** 2)
        for name, fn in (("construct", lambda: Operator(h, hermitian=True)),
                         ("symmetrize", lambda: symmetrize(x)),
                         ("eigenvalues", lambda: eigenvalues(x))):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            spent[name][str(dim)] = (time.perf_counter() - t0) / calls * 1e6
    return spent


def generator_peaks() -> dict:
    """{generator: MiB} traced peak of a second call at GENERATOR_MODEL."""
    peaks = {}
    for name, gen in (("model", gen_model_martingale), ("tensor", gen_tensor_martingale)):
        gen(GENERATOR_MODEL)
        tracemalloc.start()
        try:
            gen(GENERATOR_MODEL)
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    return peaks


def spread(xs: list) -> dict:
    return {"median": statistics.median(xs), "min": min(xs), "max": max(xs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path, default=None, help="write the JSON here too")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    with _one_blas_thread() as threads:
        result = measure(args.repeats)
    result["config"]["blas_threads"] = threads
    result["env"] = envstamp.stamp(Path(nclil.__file__).resolve().parents[2])  # caller's setting
    text = json.dumps(result, indent=2)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


def measure(repeats: int) -> dict:
    """Every layer's timings and counts, ``repeats`` passes each."""
    families = dense_families()
    timed_pass(families)                                   # warm-up
    passes = [timed_pass(families) for _ in range(repeats)]
    counts = [eigvalsh_pass(families) for _ in range(repeats)]
    layers = {name: spread([p[name] for p in passes]) for name in LAYERS}
    layers["total"] = spread([sum(p.values()) for p in passes])
    doob = doob_families()
    doob_runs = {mode: [doob_pass(doob, shared) for _ in range(repeats)]
                 for mode, shared in (("cold", False), ("shared", True))}
    for mode, runs in doob_runs.items():
        layers[f"doob.{mode}"] = spread([s for s, _ in runs])
    blocks = {}
    for dim in OPERATOR_DIMS:
        rng = stream_rng(0, dim, "bench-operator")
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks[dim] = 0.5 * (g + g.conj().T)
    operator_pass(blocks)                                  # warm-up
    op_runs = [operator_pass(blocks) for _ in range(repeats)]
    operator = {name: {dim: spread([r[name][dim] for r in op_runs]) for dim in op_runs[0][name]}
                for name in op_runs[0]}
    eig = {}
    for dim in sorted({d for c in counts for d in c}):
        eig[str(dim)] = {"matrices": counts[0].get(dim, [0])[0],
                         "s": spread([c.get(dim, [0, 0.0])[1] for c in counts])}
    return {
        "unit": "s per pass over all families",
        "config": {"workload": WORKLOAD, "doob_workload": DOOB_WORKLOAD,
                   "doob_ps": list(DOOB_PS), "repeats": repeats,
                   "operator_dims": list(OPERATOR_DIMS),
                   "generator_model": GENERATOR_MODEL.to_json()},
        "families": {**{kind: sum(1 for f in families if f[0] == kind)
                        for kind in ("block", "prefix")}, "doob": len(doob)},
        "layers": layers,
        "feasibilize_calls": {f"doob.{mode}": runs[0][1] for mode, runs in doob_runs.items()},
        "screen_by_dim": screen_pass(doob),
        "eigvalsh_by_dim": eig,
        "operator_us": operator,
        "generator_peak_mib": generator_peaks(),
    }


if __name__ == "__main__":
    sys.exit(main())
