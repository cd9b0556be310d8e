#!/usr/bin/env python3
"""Time the layers of the streaming ensemble walk on their own.

One pass streams ``--chunks`` chunks x ``--paths`` paths through
``nclil.lil._walk`` over the engines' chunker,
``nclil.martingales._atom_chunks``, in its tile of
``nclil.martingales._STREAM_TILE`` entries (``_STREAM_TILE // paths``
steps per chunk; both are recorded in the JSON ``config``, with the dtype
of the partial sums the walk yields and the size of the consumer's work
buffer), and splits the wall time into three layers:

- ``draw``: the chunker's ``next``, the iid draw that ``lil-run`` and
  ``baseline-scalar`` make (``sample_step_increments`` into the chunker's
  one buffer, of the narrowest integer type that holds a chunk's sums):
  the bytes of raw 64-bit words looked up as eight ±1 each for
  rademacher, the 16-bit lanes of raw words mapped to odd atoms in
  [-65535, 65535] for uniform;
- ``walk``: what ``_walk`` adds around the draw (the row adds that turn
  a chunk's atoms into integer partial sums, and the carried sum);
- ``consume``: the column max of |S_n| from the partials'
  column max and min (``nclil.lil._abs_top``) and the running max of
  |S_n| / sqrt(n L(n)) per path through ``nclil.lil._max_normalized``,
  the consumer both streaming engines call, which gathers and divides
  only the paths whose running max can move, in batches through one work
  buffer allocated per walk as the engines do (``nclil.lil._work_buffer``).
  The normalizers are the baseline's (``nclil.lil._baseline_den``) divided
  by the law's unit, computed one window at a time through the engines'
  ``nclil.lil._windowed``, so their cost falls in this layer as it does in
  the engines.  As in
  ``lil-run`` at its defaults (unit variance, eta 1.5), the running max
  restarts at -inf at each eta-adic boundary of the bracket, the stopping
  times of the engine's closed-form profile
  (``nclil.martingales.LinearBracket``), and a chunk that straddles one is
  consumed in two calls; the ``boundaries`` crossed are recorded in
  ``config``.

Each layer is reported in seconds per chunk as the median and min/max over
``--repeats`` passes, with the environment stamp of ``perfbench/envstamp.py``.
``flagged_fraction`` is the mean over the consumer calls of all passes of
the share of paths divided.

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
from nclil.lil import (LILParameters, _abs_top, _baseline_den,  # noqa: E402
                       _max_normalized, _walk, _windowed, _work_buffer)
from nclil.martingales import (_STEP_LAWS, _STREAM_TILE, LinearBracket,  # noqa: E402
                               _atom_chunks, _step_bound, stopping_indices)
from nclil.rng import stream_rng  # noqa: E402

LAYERS = ("draw", "walk", "consume")


def section_ends(total: int) -> list:
    """Ends of lil-run's sections within steps 1..total at its default unit
    variance: the eta-adic boundaries of the bracket s^2_n = n, then total."""
    profile = LinearBracket(1.0, total, 1.0)
    return [*stopping_indices(profile, LILParameters().eta).ks[1:].tolist(), total]


def one_pass(law: str, paths: int, chunk: int, chunks: int,
             seed: int) -> tuple[dict, float, str]:
    """Seconds per layer for one walk over chunks x chunk steps, the mean
    share of paths the consumer divided per call, and the partials' dtype."""
    total = chunks * chunk
    chunker = _atom_chunks(stream_rng(seed, label=f"baseline-{law}"), law, paths, total)
    unit = _step_bound(law, 1.0)[1]
    den = _windowed(lambda a, b: _baseline_den(a, b) / unit, total)
    ends = section_ends(total)
    runmax = np.full(paths, -np.inf)
    work = _work_buffer(paths)
    spent = dict.fromkeys(LAYERS, 0.0)
    flagged = calls = sec = 0

    def drawn():
        """The chunker's blocks, with the time of each ``next`` in the draw layer."""
        while True:
            t0 = time.perf_counter()
            try:
                item = next(chunker)
            except StopIteration:
                return
            spent["draw"] += time.perf_counter() - t0
            yield item

    walk = _walk(drawn(), paths)
    walked = 0.0
    while True:
        t0 = time.perf_counter()
        try:
            pos, S, part = next(walk)
        except StopIteration:
            break
        t1 = time.perf_counter()
        walked += t1 - t0
        lo, end = pos, pos + len(part)
        while lo < end:                            # the chunk's pieces, one per section
            hi = min(ends[sec], end)
            rows = part[lo - pos:hi - pos]
            flagged += _max_normalized(S, rows, _abs_top(S, rows), den(lo, hi), runmax, work)
            calls += 1
            if hi == ends[sec]:                    # the section ends: its max restarts
                runmax.fill(-np.inf)
                sec += 1
            lo = hi
        spent["consume"] += time.perf_counter() - t1
    spent["walk"] = walked - spent["draw"]
    return {k: v / chunks for k, v in spent.items()}, flagged / (calls * paths), str(part.dtype)


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
                   "boundaries": len(section_ends(chunk * args.chunks)) - 1,
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
