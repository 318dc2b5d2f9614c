#!/usr/bin/env python3
"""The repo's one benchmark: ``python3 bench/run.py``.

Driver contract (one workload per invocation)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and quartiles, then -- as the
last line of standard output -- one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
The exit status is non-zero when the correctness gate fails.

Without ``--workload`` every workload runs, each in its own child
process.  ``--list`` prints the workloads and why each is there,
``--quick`` is the four-segment CI form, ``--repeat-check N`` runs the
untraced set N times and checks every metric's range against its
bound.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: how long one child may run before it is killed (the driver's cap).
CHILD_TIMEOUT = 175.0


def _manifest() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="BENCHMARK.json's run_seconds (the default) measures each "
        "workload's fixed segment count; another value scales that count",
    )
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="1: traced run, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="4 segments and 1 set-up per workload (for CI)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the workloads and exit"
    )
    parser.add_argument(
        "--repeat-check", type=int, nargs="?", const=3, default=0,
        metavar="N",
        help="run the untraced set N times (default 3) with the same seed "
        "and check each metric's (max-min)/median against its bound",
    )
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return "%.6g" % value


def _print_report(report: Dict[str, Any]) -> None:
    """Human-readable lines, then the one-line JSON result."""
    from bench import metrics as M

    print("# workload %s  trace=%d" % (report["workload"], report["trace"]))
    print("# host %s" % json.dumps(report["host"], sort_keys=True))
    print(
        "# segments=%d attempted=%d failed=%d host_factor=%s host_unsteady=%s"
        % (
            report["segments"], report["attempted"], report["failed"],
            _fmt(report["host_factor"]["median"]),
            str(report["host_unsteady"]).lower(),
        )
    )
    for problem in report["problems"]:
        print("# CHECK FAILED: %s" % problem)
    units = {m.name: m.unit for m in M.END_TO_END + M.PER_LAYER}
    for name, stat in report["end_to_end"].items():
        print(
            "%-34s %14s %-6s (q1 %s, q3 %s, n=%d; as measured %s)"
            % (
                name, _fmt(stat["median"]), units[name],
                _fmt(stat["q1"]), _fmt(stat["q3"]), stat["n"],
                _fmt(stat["measured"]),
            )
        )
    if report["trace"]:
        for name, value in report["per_layer"].items():
            print("%-34s %14s %-6s" % (name, _fmt(value), units[name]))
        chosen = report["per_layer"]
    else:
        chosen = {
            name: stat["median"] for name, stat in report["end_to_end"].items()
        }
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()
                },
            }
        )
    )


def _run_here(args: argparse.Namespace) -> int:
    """Run one workload in this very process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation changes dict/set layouts and with them the
        # timings: restart this process with it pinned.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    from bench import harness
    from bench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("unknown workload %r (try --list)" % args.workload, file=sys.stderr)
        return 2
    options = harness.RunOptions(
        workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    # The data root is on the checkout's disk: take the device's flush
    # out of the numbers, in this process and for this run only.
    with harness.device_fsync_skipped():
        report = harness.run_workload(options)
    harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = "%s-trace%d.json" % (workload.name, args.trace)
    (harness.RESULTS_DIR / name).write_text(json.dumps(report, indent=1) + "\n")
    _print_report(report)
    return 0 if report["correct"] else 1


def _child(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a child process; its parsed result line."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        child.kill()
        child.wait()
        raise
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            "workload %s exited with status %d" % (workload, child.returncode)
        )
    return json.loads(lines[-1])


def _run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    status = 0
    for name in names:
        result = _child(name, args)
        if not result["correct"]:
            status = 1
    return status


def _repeat_check(args: argparse.Namespace, names: Sequence[str]) -> int:
    """N untraced sets back to back, same seed, same work; every
    metric's range over the N values, (max - min) / median, against its
    bound.  Non-zero on any breach.  The inter-quartile distance over
    the median -- the statistic the driver accepts the benchmark by --
    is printed beside it."""
    from bench import metrics as M

    bounds = {m["name"]: m["bound"] for m in _manifest()["end_to_end"]}
    args.trace = 0
    runs: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    status = 0
    for _ in range(args.repeat_check):
        for name in names:
            result = _child(name, args)
            if not result["correct"]:
                status = 1
            for metric, entry in result["metrics"].items():
                runs[name].setdefault(metric, []).append(entry["value"])
    print(
        "\n%-14s %-14s %10s %10s %10s %7s %6s %7s"
        % ("workload", "metric", "min", "median", "max", "range", "bound",
           "iqr")
    )
    for name in names:
        for metric, values in runs[name].items():
            median = M.quartiles(values)["median"]
            span = (max(values) - min(values)) / median
            breach = span > bounds[metric]
            if breach:
                status = 1
            print(
                "%-14s %-14s %10s %10s %10s %7.4f %6.2f %7.4f%s"
                % (
                    name, metric, _fmt(min(values)), _fmt(median),
                    _fmt(max(values)), span, bounds[metric],
                    M.spread(values), "  BREACH" if breach else "",
                )
            )
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    # ``bench`` is imported as a package from the repo root, never from
    # the script's own directory: bench/trace.py must not shadow the
    # standard library's ``trace`` for everything else in the process.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(SRC))
    if not (SRC / "repro").is_dir():
        print(
            "bench/run.py needs the program under test at %s" % SRC,
            file=sys.stderr,
        )
        return 2
    manifest = _manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.list:
        from bench.workloads import WORKLOADS

        for w in manifest["workloads"]:
            print("%-14s %s" % (w["name"], w["why"]))
        for w in WORKLOADS.values():
            if w.not_gated:
                print("%-14s not in BENCHMARK.json: %s" % (w.name, w.not_gated))
        return 0
    if args.repeat_check:
        return _repeat_check(args, [args.workload] if args.workload else names)
    if args.workload:
        return _run_here(args)
    return _run_all(args, names)


if __name__ == "__main__":
    sys.exit(main())
