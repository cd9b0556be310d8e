"""Command-line harness: one command table, one resolve path, one emit path.

COMMANDS maps each subcommand to its help text, its config keys (each a
coercer and a default), a runner and its switches.  main() takes every
command through the same steps: parse the flags, one ``--key-with-dashes``
per key plus ``--out``, ``--config`` and the command's switches (each sets
a boolean key to the opposite of its default); resolve defaults <
``--config`` JSON file < flags; coerce every value through its key's
coercer, wherever it came from, so that a bad value is a ConfigError naming
the key (exit 1, as is a run too large for memory); echo the values to
resolved-config.json; call the runner on them; write summary.json, the
runner's CSVs and, when a check failed, reproducer.json naming the
offending trials (exit 2); a runner that raises leaves its error in summary.json.

Each default is stated once, next to the code that uses it: in the config
dataclasses of lil-run, baseline-scalar and demo-semicircular, in the
signatures of the verify sweeps, and in COMMANDS for ks_tol and per_path.
Runners look their entry points up through the module at call time, so a
wrapper installed on the module attribute (a tracer, for instance) sees
every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import lil, verify
from .errors import ConfigError, NclilError
from .filtration import AlgebraModel
from .lil import run_lil_experiment  # noqa: F401  (name read by perfbench's tracer test)
from .verify import write_rows_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse default exits 2, which we reserve
        raise ConfigError(message)


def _np_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, default=_np_default)
        f.write("\n")


# Coercers take a flag's text or a JSON value and return the typed value;
# text that does not parse raises ValueError, which _resolve reports.

def _int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise ConfigError(f"expected an integer, got {v!r}")
    return int(v)


def _float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ConfigError(f"expected a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {v!r}")
    return x


def _instance(kind: type, what: str) -> Callable:
    def coerce(v):
        if isinstance(v, kind):
            return v
        raise ConfigError(f"expected {what}, got {v!r}")
    return coerce


_str, _bool = _instance(str, "a string"), _instance(bool, "true or false")


def _list(item: Callable) -> Callable:
    """Comma-separated text or a JSON array; never empty."""
    def coerce(v) -> list:
        if isinstance(v, str):
            v = [s.strip() for s in v.split(",") if s.strip()]
        elif not isinstance(v, (list, tuple)):
            raise ConfigError(f"expected a list, got {v!r}")
        if not v:
            raise ConfigError("expected a non-empty list")
        return [item(x) for x in v]
    return coerce


def _model(v) -> dict | None:
    """``kind:m:n`` text or a {"kind", "m", "n"} object, kept as the object."""
    if v is None:
        return None
    if isinstance(v, str):
        parts = v.split(":")
        if len(parts) != 3:
            raise ConfigError(f"model spec must look like kind:m:n, got {v!r}")
        v = dict(zip(("kind", "m", "n"), parts))
    if not isinstance(v, dict) or sorted(v) != ["kind", "m", "n"]:
        raise ConfigError(f"expected kind:m:n or an object with keys kind, m, n; got {v!r}")
    return AlgebraModel(_str(v["kind"]), _int(v["m"]), _int(v["n"])).to_json()


def _keys(source, coercers: dict, rename: dict | None = None) -> dict:
    """key -> (coercer, default), each default read from ``source`` (a config
    dataclass or a function) under the key's name or its ``rename`` entry."""
    if dataclasses.is_dataclass(source):
        defaults = {f.name: f.default for f in dataclasses.fields(source)}
    else:
        defaults = {k: p.default for k, p in inspect.signature(source).parameters.items()}
    rename = rename or {}
    return {key: (coerce, defaults[rename.get(key, key)]) for key, coerce in coercers.items()}


@dataclass
class Outcome:
    """What a runner hands to the emit path."""

    summary: dict                 # summary.json, before runtime_seconds
    csvs: dict                    # file name -> rows
    report: str                   # printed after the command name
    failure: str = ""             # set when a check failed (exit 2)
    evidence: dict = field(default_factory=dict)   # reproducer.json fields


@dataclass(frozen=True)
class Command:
    help: str
    keys: dict                    # key -> (coercer, default)
    run: Callable                 # resolved config -> Outcome
    switches: tuple = ()          # (flag, bool key it sets to not its default, help)


def _sweep(text: str, fn_name: str, coercers: dict, rename: dict | None = None) -> Command:
    """Command running verify.<fn_name>; ``rename`` maps keys to its parameter names."""
    rename = rename or {}

    def run(cfg: dict) -> Outcome:
        res = getattr(verify, fn_name)(**{rename.get(k, k): v for k, v in cfg.items()})
        return Outcome(res.to_json(), {"trials.csv": res.rows},
                       f"{len(res.rows)} checks, {len(res.violations)} violations",
                       "a checked inequality was violated" if res.violations else "",
                       {"violations": res.violations[:10]})
    return Command(text, _keys(getattr(verify, fn_name), coercers, rename), run)


_LIL_PARAMS = {"eta": _float, "delta": _float, "delta_prime": _float, "eps": _float,
               "eps_prime": lambda v: None if v is None else _float(v), "beta": _float}
_LIL_RUN = {"horizon": _int, "paths": _int, "law": _str, "variance": _float, "seed": _int,
            "checkpoints": _int, "window_decades": _float, "model": _model,
            "generator": _str, "bound_scale": _float, "strict": _bool, "progress": _bool}
_PROGRESS = ("--progress", "progress",
             "print steps done, steps/s and the ETA of the walk to stderr about once a second")


def _lil_run(cfg: dict) -> Outcome:
    run = {k: cfg[k] for k in _LIL_RUN}
    run["model"] = None if run["model"] is None else AlgebraModel(**run["model"])
    report = lil.run_lil_experiment(lil.LILRunConfig(
        params=lil.LILParameters(**{k: cfg[k] for k in _LIL_PARAMS}), **run))
    sums = dict(zip(report.used_blocks, report.series_theory_cumulative))
    rows = [{**b.to_json(), "partial_sum": float(sums[b.n]) if b.used else ""}
            for b in report.blocks]
    cps = report.checkpoints
    cp_rows = [dict(zip(cps.keys(), vals)) for vals in zip(*cps.values())]
    return Outcome(
        report.to_json(), {"blocks.csv": rows, "checkpoints.csv": cp_rows},
        f"[{report.engine}] blocks={len(report.blocks)} "
        f"used={len(report.used_blocks)} n0={report.n0} "
        f"deficit={report.deficit:.4f} limsup={report.empirical_limsup:.4f} "
        f"threshold={report.threshold:.3f} "
        f"reduction_certified={report.params.reduction_certified}",
        "" if report.bc["ok"] else "summability wiring check failed", {"bc": report.bc})


def _baseline(cfg: dict) -> Outcome:
    rep = lil.scalar_kolmogorov_baseline(lil.BaselineConfig(
        **{k: v for k, v in cfg.items() if k != "per_path"}))
    csvs = {}
    if cfg["per_path"]:
        csvs["paths.csv"] = [{"path": i, "runmax": float(v)} for i, v in enumerate(rep.per_path)]
    flag = " (pre-asymptotic horizon)" if rep.preasymptotic else ""
    return Outcome(rep.to_json(), csvs, f"median={rep.median:.4f} q90={rep.q90:.4f} "
                                        f"frac>2={rep.frac_above_2:.4f}{flag}")


def _semicircle(cfg: dict) -> Outcome:
    cfg = dict(cfg)
    ks_tol = cfg.pop("ks_tol")
    rep = lil.semicircular_demo(lil.SemicircleConfig(
        **{**cfg, "checkpoints": tuple(cfg["checkpoints"])}))
    failed = not rep.trend_ok or rep.ks_first > ks_tol
    return Outcome(rep.to_json(), {"trials.csv": rep.rows},
                   f"stats={[round(r['stat'], 4) for r in rep.rows]} "
                   f"ks_first={rep.ks_first:.4f} trend_ok={rep.trend_ok}",
                   "expected trend failed" if failed else "",
                   {"rows": rep.rows, "ks_first": rep.ks_first})


_SWEEP_KEYS = {"seed": _int, "workers": _int}
_DOOB_KEYS = {"trials_per_kind": _int, "p": _list(_float), "kinds": _list(_str), **_SWEEP_KEYS}

COMMANDS = {
    "verify-ce": _sweep("conditional-expectation axioms", "sweep_ce",
                        {"samples": _int, "seed": _int}),
    "verify-expineq": _sweep(
        "exponential moment bound sweep", "sweep_expineq",
        {"trials": _int, "eps": _list(_float), "lambda_points": _int, **_SWEEP_KEYS},
        {"eps": "eps_values"}),
    "verify-doob": _sweep("column-norm consequence sweep", "sweep_doob", _DOOB_KEYS,
                          {"p": "ps"}),
    "verify-dualdoob": _sweep("dual projection sum sweep", "sweep_dual_doob", _DOOB_KEYS,
                              {"p": "ps"}),
    "verify-chebyshev": _sweep("constructive Chebyshev sweep", "sweep_chebyshev",
                               {"trials": _int, "t_points": _int, **_SWEEP_KEYS}),
    "verify-scalarineq": _sweep("scalar power-exponential bound sweep", "sweep_scalar_bound",
                                {"count": _int, "seed": _int}, {"count": "random_count"}),
    "lil-run": Command(
        "block decomposition experiment",
        {**_keys(lil.LILRunConfig, _LIL_RUN), **_keys(lil.LILParameters, _LIL_PARAMS)},
        _lil_run,
        (("--allow-uncertified", "strict", "keep uncertified blocks instead of failing"),
         _PROGRESS)),
    "baseline-scalar": Command(
        "classical random-walk calibration",
        {**_keys(lil.BaselineConfig, {"paths": _int, "horizon": _int, "law": _str, "seed": _int,
                                      "progress": _bool}),
         "per_path": (_bool, False)},
        _baseline, (("--per-path", "per_path", "write per-path maxima to paths.csv"), _PROGRESS)),
    "demo-semicircular": Command(
        "matrix sum edge statistics",
        {**_keys(lil.SemicircleConfig, {"size": _int, "checkpoints": _list(_int),
                                        "seed": _int}),
         "ks_tol": (_float, 0.05)},
        _semicircle),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="nclil",
                     description="numerical laboratory for iterated-logarithm "
                                 "bounds on matrix martingales")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--config", help="JSON file with config values")
        switched = {key for _, key, _ in cmd.switches}
        for key, (_, default) in cmd.keys.items():
            if key not in switched:
                sp.add_argument("--" + key.replace("_", "-"), dest=key,
                                help=f"default {default}")
        for flag, key, text in cmd.switches:
            sp.add_argument(flag, dest=key, action="store_const", const=not cmd.keys[key][1],
                            help=text)
    return parser


def _read_config(path: str, keys: dict) -> dict:
    try:
        with open(path) as f:
            obj = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read --config {path}: {exc.strerror}") from exc
    except ValueError as exc:       # malformed JSON or text that is not UTF-8
        raise ConfigError(f"--config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"--config {path} must hold a JSON object, not a {type(obj).__name__}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return obj


def _resolve(keys: dict, args) -> dict:
    """defaults < --config file < flags, each value through its key's coercer."""
    raw = {key: default for key, (_, default) in keys.items()}
    if args.config:
        raw.update(_read_config(args.config, keys))
    raw.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    cfg = {}
    for key, value in raw.items():
        try:
            cfg[key] = keys[key][0](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return cfg


def _error_line(exc: Exception) -> str:
    """The stderr line of an error that exits 1; a size the machine cannot hold
    is bad input too."""
    if isinstance(exc, MemoryError):
        return f"config error: out of memory, shrink the run: {exc}"
    return f"{'config error' if isinstance(exc, ConfigError) else 'error'}: {exc}"


def _emit(name: str, cmd: Command, cfg: dict, args) -> int:
    out = Path(args.out) if args.out else Path(f"{name}-out")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "resolved-config.json", {"command": name, **cfg})
    started = time.perf_counter()
    try:
        res = cmd.run(cfg)
    except (NclilError, MemoryError) as exc:
        _write_json(out / "summary.json", {"status": "error", "message": _error_line(exc),
                                           "runtime_seconds": time.perf_counter() - started})
        raise
    _write_json(out / "summary.json",
                {**res.summary, "runtime_seconds": time.perf_counter() - started})
    for fname, rows in res.csvs.items():
        with open(out / fname, "w", newline="") as f:
            write_rows_csv(rows, f)
    print(f"{name}: {res.report}")
    if res.failure:
        _write_json(out / "reproducer.json", {"command": name, "config": cfg, **res.evidence})
        print(f"{name}: {res.failure}; see {out}/reproducer.json")
        return 2
    print(f"{name}: ok (outputs in {out})")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = COMMANDS[args.command]
        return _emit(args.command, cmd, _resolve(cmd.keys, args), args)
    except (NclilError, MemoryError) as exc:
        print(_error_line(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
