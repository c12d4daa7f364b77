"""Run workloads over several seeds and summarise every end-to-end metric.

    python3 e2ebench/sweep.py                       # every workload, seed 1
    python3 e2ebench/sweep.py --workloads lib-full --seeds 1 2 3 4 5
    python3 e2ebench/sweep.py --seeds 1 2 3 --control bridge=1.0

Each run is one ``run.py`` process, one after the other, so peak memory is
per workload and runs never compete for the CPUs. For every workload and
metric it prints the median, the quartiles and their spread (interquartile
distance over the median), plus ``bytes_per_pair`` and ``fail_rate`` from
the runs' reports.

``--control LAYER=SECONDS`` is the negative control: every run is paired
with one that carries ``--inject-delay LAYER=SECONDS``, the two back to
back and alternating which goes first, and the delayed runs' medians are
set against the plain runs' and marked where they moved beyond the
metric's bound in ``BENCHMARK.json``. Only paired runs are compared: the
machine's speed drifts between sweeps made at different times, so their
medians can differ by more than a bound with no change to the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Informational metrics from each run's report line: (name, unit).
REPORTED = (("bytes_per_pair", "B/pair"), ("fail_rate", "fraction"))


def run_once(workload, seed, seconds, trace, delay) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if delay:
        command += ["--inject-delay", delay]
    started = time.perf_counter()
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} failed ({completed.returncode})")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2].removeprefix("report "))
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, unit in REPORTED:
        if name in report:
            values.setdefault(name, report[name])
            units.setdefault(name, unit)
    return {
        "workload": workload, "seed": seed, "correct": result["correct"],
        "attempted": result["attempted"], "failed": result["failed"],
        "values": values, "units": units, "report": report, "wall_s": wall,
    }


def summarise(runs: list[dict]) -> dict:
    """Per workload and metric: median, quartiles, spread, unit."""
    summary: dict = {}
    for run in runs:
        for name, value in run["values"].items():
            entry = summary.setdefault(run["workload"], {}).setdefault(
                name, {"unit": run["units"][name], "values": []}
            )
            entry["values"].append(value)
    for metrics in summary.values():
        for entry in metrics.values():
            values = entry["values"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            entry.update(
                median=median, q1=q1, q3=q3,
                spread=(q3 - q1) / median if median else 0.0,
            )
    return summary


def bounds() -> dict[str, float]:
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in document["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", nargs="+",
        default=["lib-full", "protocol-12k", "net-4500", "paillier-600"],
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--control", metavar="LAYER=SECONDS")
    parser.add_argument("--out", type=Path, help="write every run and the summary")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text()
    )["run_seconds"]

    runs = []
    for workload in args.workloads:
        for index, seed in enumerate(args.seeds):
            delays = [None]
            if args.control:
                delays = [None, args.control][:: 1 if index % 2 == 0 else -1]
            for delay in delays:
                run = run_once(workload, seed, seconds, args.trace, delay)
                run["delay"] = delay
                runs.append(run)
                shown = "  ".join(
                    f"{name}={value:.6g}" for name, value in run["values"].items()
                )
                print(f"{workload:13} seed {seed:<3} delay={delay} "
                      f"wall={run['wall_s']:.1f}s correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']}  {shown}", flush=True)

    if args.control:
        baseline = summarise([run for run in runs if run["delay"] is None])
        summary = summarise([run for run in runs if run["delay"] is not None])
    else:
        baseline, summary = {}, summarise(runs)
    limits = bounds()
    print()
    for workload, metrics in summary.items():
        for name, entry in metrics.items():
            line = (
                f"{workload:13} {name:28} median {entry['median']:.6g} {entry['unit']}"
                f"  q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                f"  spread {entry['spread']:.2%}"
            )
            before = baseline.get(workload, {}).get(name)
            if before and before["median"]:
                change = entry["median"] / before["median"] - 1
                line += f"  vs undelayed {change:+.2%}"
                if name in limits and change > limits[name]:
                    line += f"  BEYOND BOUND {limits[name]:.0%}"
            print(line)
    if args.out:
        args.out.write_text(
            json.dumps(
                {"runs": runs, "summary": summary, "baseline": baseline}, indent=1
            )
            + "\n"
        )
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
