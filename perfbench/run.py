"""Benchmark for nclil: four workloads driven through ``nclil.cli.main``.

One run of a workload is a closed loop: the benchmark process runs the
workload's CLI calls in-process, one run after the other, until
``--seconds`` are used (at least two runs, unless one run is so slow that
a second would pass ``MAX_TIMED_S``).  Set-up probes (fresh processes)
are taken between the runs.  Every call is checked for correctness and
its deterministic outputs are hashed; repeated runs of one seed must
hash the same.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --all            # every workload (sweep-pool untraced only)

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see tracing.py).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
BLAS threads are left as the user's environment sets them; the thread
count in use is recorded in the environment stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envstamp
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_RUNS = 2
MAX_TIMED_S = 140       # keeps an invocation under 180 s on a slow or busy machine
SETUP_PROBES_PER_RUN = 4  # fresh-process set-up probes after each timed run
MIN_SETUP_PROBES = 16     # topped up after the last run

END_TO_END = [
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
]

PER_LAYER = [
    ("martingales.increments.calls", "count"),
    ("martingales.increments.self_s", "s"),
    ("martingales.increments.bytes", "B"),
    ("martingales.generate.calls", "count"),
    ("martingales.generate.self_s", "s"),
    ("lil.self_s", "s"),
    ("lil.path_steps", "count"),
    ("filtration.ce.calls", "count"),
    ("filtration.ce.self_s", "s"),
    ("operators.construct.calls", "count"),
    ("operators.construct.self_s", "s"),
    ("operators.spectral.calls", "count"),
    ("operators.spectral.self_s", "s"),
    ("operators.spectral.work_dim3", "count"),
    ("inequalities.certificate.calls", "count"),
    ("inequalities.certificate.self_s", "s"),
    ("inequalities.certificate.iterations", "count"),
    ("inequalities.probc.self_s", "s"),
    ("inequalities.expmoment.self_s", "s"),
    ("inequalities.doob.held_ratio", "ratio"),
    ("inequalities.doob.inconclusive", "count"),
    ("verify.self_s", "s"),
    ("verify.trials", "count"),
    ("verify.pool_efficiency", "ratio"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _import_program():
    """Import nclil from the checkout's src/; exit 2 if it is not there."""
    if not (SRC / "nclil" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no nclil package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from nclil import cli
    return cli


def _cpu_times() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_cli(cli, argv, out: Path, tracer=None) -> tuple[int, str]:
    """One CLI call; returns (exit code, captured text).  Exceptions count as exit 99."""
    argv = list(argv) + ["--out", str(out)]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli", argv[0], True, cli.main, (argv,), {}, None)
    except Exception:
        return 99, buf.getvalue() + traceback.format_exc()
    return rc, buf.getvalue()


def run_once(cli, workload, seed: int, workdir: Path, tracer=None) -> dict:
    """One run of a workload: its CLI calls, timed, then gated and hashed."""
    calls = workload.calls(seed)
    load_before = os.getloadavg()
    cpu0 = _cpu_times()
    t0 = time.perf_counter()
    results = []
    for i, call in enumerate(calls):
        results.append(run_cli(cli, call.argv, workdir / f"{i}-{call.label}", tracer))
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_times() - cpu0
    load_after = os.getloadavg()

    failures, digests, work = [], [], {}
    for i, (call, (rc, text)) in enumerate(zip(calls, results)):
        out = workdir / f"{i}-{call.label}"
        if rc != 0:
            failures.append(f"{call.label}: exit {rc}: {text.strip()[-400:]}")
            continue
        try:
            summary = wl.read_summary(out)
            failed_conditions = call.gate(summary)
            unit, amount = wl.work_done(summary)
            digests.append(wl.payload_digest(out))
        except (OSError, KeyError, ValueError, TypeError) as exc:
            failures.append(f"{call.label}: unreadable outputs: {exc!r}")
            continue
        if failed_conditions:
            failures.append(f"{call.label}: gate failed: {', '.join(failed_conditions)}")
        work[unit] = work.get(unit, 0) + amount
    return {
        "run_s": run_s, "cpu_s": cpu_s, "calls": len(calls),
        "failed_calls": len(failures), "failures": failures,
        "digest": wl.combine(digests) if len(digests) == len(calls) else None,
        "work": work, "loadavg_before": load_before, "loadavg_after": load_after,
    }


def warm_up(cli, workload, workdir: Path) -> dict:
    """Small calls of the workload's commands before timing, as a pseudo-run."""
    failures = []
    for i, argv in enumerate(workload.warmup):
        rc, text = run_cli(cli, argv, workdir / f"warmup-{i}")
        if rc != 0:
            failures.append(f"warm-up {argv[0]}: exit {rc}: {text.strip()[-400:]}")
    return {"calls": len(workload.warmup), "failed_calls": len(failures),
            "failures": failures}


def measure_setup(workload_name: str, workdir: Path, count: int) -> list[float]:
    """Seconds from process start to ready (imports plus warm-up), per probe."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--workdir", str(workdir / "probe")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=str(ROOT))
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-400:]}")
        times.append(ready)
    return times


def peak_rss_mb(workers: int, child_kib: int) -> float:
    """Own peak plus, for pooled runs, each worker at the largest child peak.

    Linux reports ru_maxrss in KiB.  Pages a forked worker shares with
    this process count in both, so for pooled runs this bounds the process
    tree's peak from above.
    """
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (me + (workers * child_kib if workers > 1 else 0)) / 1024.0


def timed(cli, workload, seed: int, seconds: float, workdir: Path) -> tuple:
    """Closed loop of runs, each followed by set-up probes, for ``seconds``.

    Spreading the probes over the loop lets their median see the same
    slow and fast spells of the machine as the runs do.
    """
    warm = warm_up(cli, workload, workdir)
    runs, setup = [], []
    child_kib = 0
    start = time.perf_counter()
    while True:
        runs.append(run_once(cli, workload, seed, workdir))
        if len(runs) == 1:          # pool workers only; the probes are children too
            child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup += measure_setup(workload.name, workdir, SETUP_PROBES_PER_RUN)
        elapsed = time.perf_counter() - start
        slot = elapsed / len(runs)
        if elapsed + slot > MAX_TIMED_S or (
                len(runs) >= MIN_RUNS and elapsed + slot > seconds):
            break
    setup += measure_setup(workload.name, workdir, MIN_SETUP_PROBES - len(setup))
    rss = peak_rss_mb(workload.workers, child_kib)
    work_rates = [sum(r["work"].values()) / r["run_s"] for r in runs]
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median(work_rates),
    }
    return metrics, runs, warm, {"setup_probes_s": setup}


def traced(cli, workload, seed: int, workdir: Path) -> tuple:
    """Per-layer numbers from one traced run between two untraced runs.

    On sweep, one untraced sweep-pool run adds the pool efficiency; the
    pool's children are invisible to the tracer, so sweep-pool has no
    traced run of its own.
    """
    pool = wl.WORKLOADS["sweep-pool"] if workload.name == "sweep" else None
    warm = warm_up(cli, workload, workdir)
    before = run_once(cli, workload, seed, workdir)
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer):
        traced_run = run_once(cli, workload, seed, workdir, tracer)
    leftovers = tracing.leftover_wrappers()
    after = run_once(cli, workload, seed, workdir)
    untraced_s = statistics.median([before["run_s"], after["run_s"]])
    runs = [before, traced_run, after]
    pool_efficiency = 0.0
    if pool is not None:
        pooled = run_once(cli, pool, seed, workdir)
        runs.append(pooled)
        pool_efficiency = untraced_s / (pool.workers * pooled["run_s"])

    c = tracer.counts
    doob_checks = c["inequalities.doob.checks"]
    derived = {
        "inequalities.doob.held_ratio":
            c["inequalities.doob.held"] / doob_checks if doob_checks else 0.0,
        "verify.pool_efficiency": pool_efficiency,
        "trace.overhead_s": traced_run["run_s"] - untraced_s,
    }
    metrics = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif kind == "calls":
            metrics[name] = float(tracer.calls[layer])
        elif kind == "self_s":
            metrics[name] = tracer.self_s[layer]
        else:
            metrics[name] = float(c[name])
    if leftovers:
        traced_run["failures"].append(f"wrappers left installed: {leftovers}")
    spans = {}                      # span name -> [count, total seconds, self seconds]
    for span in tracer.spans:
        agg = spans.setdefault(span["name"], [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += span["end"] - span["start"]
        agg[2] += span["self_s"]
    extra = {"spans": spans, "traced_wall_s": traced_run["run_s"],
             "layer_self_s_total": sum(tracer.self_s.values())}
    return metrics, runs, warm, extra


def _recorded_digest(workload, seed: int) -> str | None:
    try:
        with open(HERE / "digests.json") as f:
            recorded = json.load(f)
    except (OSError, ValueError):
        return None
    key = str(seed) if workload.seeded else "fixed"
    return recorded.get(workload.name, {}).get(key)


def bench(args) -> int:
    cli = _import_program()
    workload = wl.WORKLOADS[args.workload]
    program_seed = args.seed if workload.seeded else 0
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = envstamp.stamp(ROOT)
        if args.trace:
            metrics, runs, warm, extra = traced(cli, workload, program_seed, workdir)
            units = dict(PER_LAYER)
        else:
            metrics, runs, warm, extra = timed(cli, workload, program_seed, args.seconds,
                                               workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failures = [f for r in [warm] + runs for f in r["failures"]]
    digests = {r["digest"] for r in runs}
    deterministic = len(digests) == 1 and None not in digests
    if not deterministic:
        failures.append(f"digests differ between runs of one seed: {sorted(map(str, digests))}")
    recorded = _recorded_digest(workload, program_seed)
    attempted = warm["calls"] + sum(r["calls"] for r in runs)
    failed = warm["failed_calls"] + sum(r["failed_calls"] for r in runs)

    print(f"workload {workload.name}  seed {args.seed}  program seed {program_seed}  "
          f"trace {args.trace}  runs {len(runs)}")
    for i, r in enumerate(runs):
        print(f"  run {i}: run_s {r['run_s']:.4f}  cpu_s {r['cpu_s']:.4f}  work {r['work']}  "
              f"digest {str(r['digest'])[:16]}  loadavg {r['loadavg_before'][0]:.2f}"
              f" -> {r['loadavg_after'][0]:.2f}")
    for f in failures:
        print(f"  FAILED {f}")
    if deterministic:
        digest = runs[0]["digest"]
        verdict = ("none recorded" if recorded is None
                   else "matches recorded" if recorded == digest else "DIFFERS from recorded")
        print(f"  digest {digest} ({verdict}; reported only)")
    print(f"  ops_failed_frac {failed / attempted:.4f} ({failed} of {attempted} calls)")
    print(f"  work unit: {workload.work_unit}")
    print("  env " + json.dumps(env, sort_keys=True))
    print("  extra " + json.dumps(extra, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:16.6f} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def setup_probe(args) -> int:
    """Child process of measure_setup: import, warm up, report ready."""
    cli = _import_program()
    workdir = Path(args.workdir)
    failures = warm_up(cli, wl.WORKLOADS[args.workload], workdir)["failures"]
    shutil.rmtree(workdir, ignore_errors=True)
    if failures:
        sys.stderr.write("\n".join(failures) + "\n")
        return 1
    print("ready", flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1) if name != "sweep-pool" else (0,):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"workload {name} trace {trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            print(f"  => correct {result['correct']}  failed {result['failed']}"
                  f" of {result['attempted']}\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_probe:
        return setup_probe(args)
    if args.trace and args.workload == "sweep-pool":
        parser.error("sweep-pool has no traced run: its pool figures come from "
                     "--workload sweep --trace 1")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
