#!/usr/bin/env python3
"""Time the layers of the streaming ensemble walk on their own.

One pass streams ``--chunks`` chunks x ``--paths`` paths through
``nclil.lil._walk`` over the engines' chunker,
``nclil.martingales._atom_chunks``, in its tile of
``nclil.martingales._STREAM_TILE`` entries (``_STREAM_TILE // paths``
steps per chunk; both are recorded in the JSON ``config``, with the dtype
of the partial sums the walk yields and the size of the kernel's work
buffer), and consumes it with the streaming kernel, ``nclil.lil._consume``,
called with ``lil-run``'s own arguments at its defaults (unit variance,
eta 1.5, 200 checkpoints): the sections end at the eta-adic boundaries
of its closed-form bracket (``nclil.martingales.LinearBracket``), then at
the last step, and the ``boundaries`` crossed are recorded in ``config``;
the normalizers are the bracket's sqrt(s^2) u over the law's unit, one
window at a time (``nclil.lil._windowed``); the checkpoints are its
log-spaced grid (``nclil.lil._checkpoint_steps``).  The wall time of the
kernel's pass splits into three layers:

- ``draw``: the chunker's ``next``, the iid draw that ``lil-run`` and
  ``baseline-scalar`` make (``sample_step_increments`` into the chunker's
  one buffer, of the narrowest integer type that holds a chunk's sums):
  the bytes of raw 64-bit words looked up as eight ±1 each for
  rademacher, the 16-bit lanes of raw words mapped to odd atoms in
  [-65535, 65535] for uniform;
- ``walk``: what ``_walk``'s ``next`` adds around the draw (the row adds
  that turn a chunk's atoms into integer partial sums, and the carried
  sum);
- ``consume``: the rest of the kernel's pass, the same work as in
  ``lil-run``: per section of a chunk the column max of |S_n|
  (``nclil.lil._abs_top``), the running max of |S_n| and the section max
  of |S_n| over its normalizer (``nclil.lil._max_normalized``, which
  divides only the paths whose max can move), the |S_m| at the
  checkpoints, and the normalizer windows.

Each layer is reported in seconds per chunk as the median and min/max over
``--repeats`` passes, with the environment stamp of ``perfbench/envstamp.py``.
``flagged_fraction`` is the share of paths the kernel divided per
``_max_normalized`` call (one per section piece of a chunk), as the mean
over the passes.

    PYTHONPATH=src python scripts/bench_walk.py --repeats 5 --out walk.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import envstamp  # noqa: E402
import nclil  # noqa: E402
from nclil.lil import (LILParameters, LILRunConfig, _checkpoint_steps,  # noqa: E402
                       _consume, _walk, _windowed, _work_buffer)
from nclil.martingales import (_STEP_LAWS, _STREAM_TILE, LinearBracket,  # noqa: E402
                               _atom_chunks, _step_bound, stopping_indices)
from nclil.rng import stream_rng  # noqa: E402

LAYERS = ("draw", "walk", "consume")


def lil_run_args(law: str, total: int) -> tuple:
    """The kernel's arguments after the walk and its width, as lil-run passes
    them at its defaults, for a walk of steps 1..total: the section ends
    (0, the eta-adic boundaries of the bracket s^2_n = n, then total), the
    windowed normalizers, the checkpoint steps and the integer dtype."""
    bound, unit = _step_bound(law, 1.0)
    profile = LinearBracket(1.0, total, bound)
    ends = [*stopping_indices(profile, LILParameters().eta).ks.tolist(), total]
    norms = _windowed(lambda a, b: profile.norm_range(a, b) / unit, total)
    return (ends, norms, _checkpoint_steps(total, LILRunConfig().checkpoints),
            np.min_scalar_type(_STEP_LAWS[law][1] * total))


def one_pass(law: str, paths: int, chunk: int, chunks: int,
             seed: int) -> tuple[dict, float, str]:
    """Seconds per layer for one walk over chunks x chunk steps, the mean
    share of paths the kernel divided per call, and the partials' dtype."""
    total = chunks * chunk
    spent, last = dict.fromkeys(LAYERS, 0.0), {}

    def timed(items, layer):
        """``items``, with the time of each ``next`` added to ``layer``."""
        while True:
            t0 = time.perf_counter()
            try:
                last[layer] = next(items)
            except StopIteration:
                return
            spent[layer] += time.perf_counter() - t0
            yield last[layer]

    chunker = _atom_chunks(stream_rng(seed, label=f"lil-stream-{law}"), law, paths, total)
    ends, norms, cp_steps, dtype = lil_run_args(law, total)
    t0 = time.perf_counter()
    divided = _consume(timed(_walk(timed(chunker, "draw"), paths), "walk"), paths, ends,
                       norms, cp_steps, dtype)[3]
    spent["consume"] = time.perf_counter() - t0 - spent["walk"]
    spent["walk"] -= spent["draw"]
    calls = len(set(range(0, total, chunk)).union(ends)) - 1   # nonempty section pieces
    return ({k: v / chunks for k, v in spent.items()}, divided / (calls * paths),
            str(last["draw"][1].dtype))


def main(argv=None) -> int:
    # no abbreviations: the removed --chunk would otherwise be taken for --chunks
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    ap.add_argument("--law", choices=tuple(_STEP_LAWS), default="rademacher")
    ap.add_argument("--paths", type=int, default=4096)
    ap.add_argument("--chunks", type=int, default=512)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None, help="write the JSON here too")
    args = ap.parse_args(argv)
    if min(args.paths, args.chunks, args.repeats) < 1:
        ap.error("sizes must be >= 1")
    chunk = max(1, _STREAM_TILE // args.paths)          # steps per chunk of the engines' walk

    one_pass(args.law, args.paths, chunk, 1, args.seed)             # warm-up
    passes, fractions, dtypes = zip(*(one_pass(args.law, args.paths, chunk, args.chunks,
                                               args.seed) for _ in range(args.repeats)))
    layers = {}
    for name in LAYERS + ("total",):
        xs = [sum(p.values()) if name == "total" else p[name] for p in passes]
        layers[name] = {"median": statistics.median(xs), "min": min(xs), "max": max(xs)}
    result = {
        "unit": "s per chunk",
        "config": {"tile_floats": _STREAM_TILE, "chunk": chunk, "partial_dtype": dtypes[0],
                   "work_floats": len(_work_buffer(args.paths)),
                   "boundaries": len(lil_run_args(args.law, chunk * args.chunks)[0]) - 2,
                   **{k: getattr(args, k) for k in ("law", "paths", "chunks", "repeats", "seed")}},
        "layers": layers,
        "flagged_fraction": statistics.fmean(fractions),
        "path_steps_per_s": chunk * args.paths / layers["total"]["median"],
        "env": envstamp.stamp(Path(nclil.__file__).resolve().parents[2]),
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
