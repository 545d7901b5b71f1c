"""npscan benchmark: the CLI on three fixed workloads, end to end and per layer.

    python3 perfbench/run.py --workload scan-x3 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from the root of a checkout; it runs the checkout's ``src/npscan``.
Children run one at a time (a closed loop with one client): each is a
fresh ``python3 perfbench/child.py`` that imports ``npscan.cli`` and calls
``main`` on the workload's argument lists.  Workloads and their reference
outputs are in workloads.py.

``--trace 0`` reports the end-to-end metrics, medians over the run's
children:

* ``wall_s`` -- seconds from the call into ``cli.main`` to its return,
  summed over a child's calls;
* ``setup_s`` -- child start until ``npscan.cli`` is imported and ``main``
  is callable; every workload child and one import-only child after each
  give a sample;
* ``peak_rss_mb`` -- the child's ``ru_maxrss``, read after it exits.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of tracing.py from the traced ones, plus
``trace.overhead_s``, the median over rounds of the traced child's minus
the untraced child's ``wall_s`` (pairing neighbours cancels slow drift in
the machine's speed).

``--workload all`` runs every workload both ways and ends with one JSON
object holding all results; ``baseline.json`` is that object.  Otherwise
the last line is ``{"correct", "attempted", "failed", "metrics"}``; an
operation is a scan row or a crosscheck status line, and
``failed_ratio`` = failed / attempted is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = {False: 3, True: 2}  # children of each kind, untraced and traced runs


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(argvs: list[list[str]], trace: bool) -> dict:
    """Run one child to completion; its report plus setup_s and peak_rss_mb."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spec = json.dumps({"argvs": argvs, "trace": trace})
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), spec],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read().decode()
    except BaseException:  # interrupted or terminated: take the child down too
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        # wait4 reaps the child and returns its own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{out[-2000:]}")
    report = json.loads(out.splitlines()[-1])
    src = (ROOT / "src" / "npscan").resolve()
    if Path(report["npscan_file"]).resolve().parent != src:
        raise BenchError(f"child imported {report['npscan_file']}, not the checkout's {src}")
    report["setup_s"] = report["ready"] - started
    report["peak_rss_mb"] = usage.ru_maxrss / 1024
    report["wall_s"] = sum(call["wall_s"] for call in report["calls"])
    return report


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: children in a closed loop for about `seconds` seconds."""
    argvs = workloads.argvs(name, seed)
    checker = workloads.Checker(name)
    numpy_version = spawn([], False)["numpy"]  # warm-up: byte-compiles, pages in imports
    kinds = [False, True] if trace else [False]
    reports = {False: [], True: []}
    setups, problems, durations = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in kinds:
            report = spawn(argvs, traced)
            reports[traced].append(report)
            if not trace:
                setups += [report["setup_s"], spawn([], False)["setup_s"]]
            for argv, call in zip(argvs, report["calls"]):
                n, bad, why = checker.check(argv, call)
                attempted, failed = attempted + n, failed + bad
                problems += why
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(durations) >= MIN_ROUNDS[trace]
                and elapsed + statistics.median(durations) > seconds):
            break

    walls = [r["wall_s"] for r in reports[False]]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "samples": {"children": len(walls), "setup": len(setups)},
        "child_walls": walls,
        "problems": problems,
        "numpy": numpy_version,
    }
    if not trace:
        result["metrics"] = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports[False]), "MB"),
        }
        return result
    per_child = [tracing.layer_metrics(r["layers"]) for r in reports[True]]
    metrics = {
        key: (statistics.median(m[key][0] for m in per_child), unit)
        for key, (_, unit) in per_child[0].items()
    }
    overheads = [t["wall_s"] - u["wall_s"] for u, t in zip(reports[False], reports[True])]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    result["metrics"] = metrics
    result["walls"] = {
        "untraced": statistics.median(walls),
        "traced": statistics.median(r["wall_s"] for r in reports[True]),
    }
    return result


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


def _show(name: str, result: dict) -> None:
    n = result["samples"]
    print(f"# {name}: {n['children']} children, {n['setup']} set-up samples")
    print(f"# {name}: untraced child wall_s " + " ".join(f"{w:.3f}" for w in result["child_walls"]))
    for key, (value, unit) in result["metrics"].items():
        print(f"{name} {key} = {value:.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name} failed_ratio = {ratio:.6g} ({result['failed']}/{result['attempted']})")
    for problem in result["problems"][:20]:
        print(f"{name} problem: {problem}", file=sys.stderr)


def _as_json(metrics: dict) -> dict:
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "npscan" / "cli.py").is_file():
        print(f"error: no npscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print("# provenance " + json.dumps(provenance(args.seed, result["numpy"])))
            _show(args.workload, result)
            print(json.dumps({
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": _as_json(result["metrics"]),
            }))
            return 0
        combined = {}
        for name in workloads.NAMES:
            plain = measure(name, args.seed, args.seconds, False)
            traced = measure(name, args.seed, args.seconds, True)
            _show(name, plain)
            _show(name, traced)
            combined[name] = {
                "correct": plain["correct"] and traced["correct"],
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "samples": {"untraced": plain["samples"], "traced": traced["samples"]},
                "end_to_end": _as_json(plain["metrics"]),
                "per_layer": _as_json(traced["metrics"]),
                "traced_run_walls": traced["walls"],
            }
        print(json.dumps({"provenance": provenance(args.seed, plain["numpy"]),
                          "seconds": args.seconds, "workloads": combined}))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
