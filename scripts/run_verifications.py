#!/usr/bin/env python3
"""Run every verification sweep at its default size into out/verify-*.

Pass extra flags through to a single sweep by naming it, e.g.

    python3 scripts/run_verifications.py expineq --trials 50 --workers 4
"""

import sys
import time

from nclil.cli import COMMANDS, main

SWEEPS = [name.removeprefix("verify-") for name in COMMANDS if name.startswith("verify-")]


def run_one(name: str, extra) -> int:
    started = time.time()
    rc = main([f"verify-{name}", "--out", f"out/verify-{name}", *extra])
    print(f"  -> verify-{name}: exit {rc} in {time.time() - started:.1f}s")
    return rc


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv and not argv[0].startswith("-"):
        sys.exit(run_one(argv[0], argv[1:]))
    worst = 0
    for name in SWEEPS:
        worst = max(worst, run_one(name, argv))
    sys.exit(worst)
