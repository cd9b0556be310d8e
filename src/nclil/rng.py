"""Deterministic random streams.

Every stochastic routine in the package draws from a named stream so that
replicas and labeled sub-experiments are reproducible independently of
execution order.  Streams are counter-based (Philox) and the label is
folded in through a stable hash, never through Python's per-process
``hash``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError


def _label_key(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream_rng(seed: int, replica: int = 0, label: str = "") -> np.random.Generator:
    """Generator for the (seed, replica, label) stream.

    Distinct labels or replica indices give statistically independent
    streams; the same triple always reproduces the same draws.
    """
    if int(seed) < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    seq = np.random.SeedSequence([int(seed), int(replica), _label_key(label)])
    return np.random.Generator(np.random.Philox(seq))
