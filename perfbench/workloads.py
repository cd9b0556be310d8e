"""The four benchmark workloads: CLI calls, correctness gates, work counts.

Each workload is a list of ``nclil`` CLI calls.  After a call, its
``summary.json`` is checked against the acceptance contract of that
command, and its deterministic payload is hashed.  Work is counted from
the outputs, never from the flags that were passed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple
    gate: Callable[[dict], list]      # summary -> list of failed conditions


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str                    # what work_per_s counts
    workers: int                      # processes the sweeps fan out to
    seeded: bool                      # whether --seed reaches the program (see README)
    calls: Callable[[int], list]      # program seed -> calls of one run
    warmup: tuple                     # small argv lists run before timing


def _failed(conditions: dict) -> list:
    return [name for name, ok in conditions.items() if not ok]


def gate_lil_stream(s: dict) -> list:
    return _failed({
        "bc.ok": s["bc"]["ok"],
        "deficit < 0.05": s["deficit"] < 0.05,
        "empirical_limsup <= threshold": s["empirical_limsup"] <= s["threshold"],
    })


def gate_baseline(s: dict) -> list:
    return _failed({
        "1 <= median <= 2": 1.0 <= s["median"] <= 2.0,
        "frac_above_2 < 0.05": s["frac_above_2"] < 0.05,
        "preasymptotic flag set": s["preasymptotic"] is True,
    })


def gate_lil_dense(s: dict) -> list:
    return _failed({"bc.ok": s["bc"]["ok"]})


def gate_doob(s: dict) -> list:
    summ = s["summary"]
    return _failed({
        "certified_violations == 0": summ["certified_violations"] == 0,
        "hold_rate >= 0.95": summ["hold_rate"] >= 0.95,
    })


def gate_expineq(s: dict) -> list:
    return _failed({"violations == 0": s["summary"]["violations"] == 0})


def _stream_calls(seed: int) -> list:
    return [
        Call("lil-run", ("lil-run", "--horizon", "50000", "--paths", "4096",
                         "--eps-prime", "0.02", "--seed", str(seed)), gate_lil_stream),
        Call("baseline-scalar", ("baseline-scalar", "--horizon", "20000", "--paths", "4096",
                                 "--seed", str(seed)), gate_baseline),
    ]


def _dense_calls(seed: int) -> list:
    return [Call("lil-run", ("lil-run", "--model", "tensor:2:8", "--horizon", "8",
                             "--eta", "1.2", "--allow-uncertified", "--seed", str(seed)),
                 gate_lil_dense)]


def _sweep_calls(workers: int) -> Callable[[int], list]:
    def calls(seed: int) -> list:
        extra = ("--workers", str(workers))
        return [
            Call("verify-doob", ("verify-doob", "--trials-per-kind", "8") + extra, gate_doob),
            Call("verify-expineq", ("verify-expineq", "--trials", "40") + extra, gate_expineq),
        ]
    return calls


_SWEEP_WARMUP = (("verify-doob", "--trials-per-kind", "1", "--p", "4"),
                 ("verify-expineq", "--trials", "2", "--lambda-points", "2"))

WORKLOADS = {
    "stream": Workload(
        "stream", "path-steps", 1, True, _stream_calls,
        (("lil-run", "--horizon", "20000", "--paths", "64", "--eps-prime", "0.02"),
         ("baseline-scalar", "--horizon", "1000", "--paths", "64"))),
    "dense": Workload(
        "dense", "blocks", 1, False, _dense_calls,
        (("lil-run", "--model", "tensor:2:4", "--horizon", "4", "--eta", "1.2",
          "--allow-uncertified"),)),
    "sweep": Workload("sweep", "checks", 1, False, _sweep_calls(1), _SWEEP_WARMUP),
    "sweep-pool": Workload(
        "sweep-pool", "checks", 2, False, _sweep_calls(2),
        tuple(argv + ("--workers", "2") for argv in _SWEEP_WARMUP)),
}


def read_summary(out: Path) -> dict:
    with open(out / "summary.json") as f:
        return json.load(f)


def work_done(summary: dict) -> tuple[str, int]:
    """(unit, amount) of work one call's summary.json accounts for."""
    if "summary" in summary:                               # verify-* sweeps
        return "checks", int(summary["summary"]["checks"])
    if summary.get("engine") == "streaming-ensemble":      # lil-run walks to the last boundary
        paths = int(summary["carrier"].split("=", 1)[1])
        return "path-steps", int(summary["blocks"][-1]["k_end"]) * paths
    if summary.get("engine") == "dense-certificate":
        return "blocks", len(summary["blocks"])
    cfg = summary["config"]                                # baseline-scalar walks every step
    return "path-steps", int(cfg["horizon"]) * int(cfg["paths"])


def payload_digest(out: Path) -> str:
    """Hash of summary.json without runtime_seconds, trials.csv and blocks.csv."""
    h = hashlib.sha256()
    summary = read_summary(out)
    summary.pop("runtime_seconds", None)
    h.update(json.dumps(summary, sort_keys=True).encode())
    for name in ("trials.csv", "blocks.csv"):
        path = out / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.exists() else b"-")
    return h.hexdigest()


def combine(digests: list) -> str:
    """One digest for a run from the digests of its calls, in call order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()
