"""Reference draws of the streaming laws' integer atoms, shared by the test modules.

They restate the draw contract of ``sample_step_increments`` without its
code: whole full-range 64-bit words per step from ``rng.integers``, split
into bits by ``np.unpackbits`` (rademacher) or into 16-bit lanes by shifts
(uniform), lowest first.  Imported by name (``from step_atoms import ...``);
the name is unique so that it cannot resolve to a helper module of another
test directory collected in the same pytest run.
"""

import math

import numpy as np

ATOM_MAX = {"rademacher": 1, "uniform": 65535}
RATIO = {"rademacher": 1.0, "uniform": (2 ** 16 + 1) / (3 * (2 ** 16 - 1))}


def reference_atoms(rng, law, steps, paths):
    """(steps, paths) int64 atoms: ±1 from the bits of ceil(paths / 64) words
    a step, or k = 2u - 65535 from the 16-bit lanes u of ceil(paths / 4)."""
    per_word = 64 if law == "rademacher" else 4
    words = rng.integers(0, np.iinfo(np.uint64).max, size=(steps, -(-paths // per_word)),
                         dtype=np.uint64, endpoint=True)
    if law == "rademacher":
        bits = np.unpackbits(words.view(np.uint8), axis=1, count=paths, bitorder="little")
        return 2 * bits.astype(np.int64) - 1
    shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)
    lanes = (words[:, :, None] >> shifts) & np.uint64(0xFFFF)
    return 2 * lanes.reshape(steps, -1)[:, :paths].astype(np.int64) - 65535


def reference_unit(law, variance):
    """(bound, unit) of the law at the variance: unit = sqrt(v / ratio) / atom_max."""
    unit = math.sqrt(variance / RATIO[law]) / ATOM_MAX[law]
    return unit * ATOM_MAX[law], unit
