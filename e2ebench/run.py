"""Run one end-to-end linkage workload and print its metrics.

    python3 e2ebench/run.py --workload lib-full --seed 1 --seconds 18 --trace 0

One run alternates rounds of set-ups with loops of link calls issued
back to back, one caller in a closed loop, for ``--seconds`` in all;
one untimed cold link call follows the first set-up. Every call's output
is checked; a call that raises or fails a check counts as failed.

``link_s`` is the fastest link call of the run and ``setup_s`` the
fastest set-up. The median and the highest percentile with ten calls
beyond it are printed beside them, but they follow the machine more
than the program: on a shared virtual machine with 2 vCPUs (Intel Xeon,
2.1 GHz) the same 600-record set-up took 20 ms in some 2-s windows and
33-36 ms in others, for ten seconds at a time, and a fixed pure-Python
loop drifted from 60 to 90 ms over 200 s (medians of 10-s windows) while
its fastest run per window stayed within 55-65 ms. Spreading set-ups
over the run and keeping the fastest keeps such slow spells out.
``peak_rss_mb`` is the process's peak resident memory; the references
the checks compare against are built in a child process, so it holds
only the workload's own memory.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: half the time untraced, half
with every injected layer object timed (see ``spans.py``), and reports
the per-layer metrics, the tracing overhead and the share of link time
charged to no layer below the entry point.

``--inject-delay LAYER=SECONDS`` is the negative control: it sleeps once
per link call inside the named injected layer object (``oracle`` or
``bridge``), so that layer's workloads slow down and the trace charges
the time to that layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it starts with ``report`` and holds the informational figures as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Switches that make production code sleep or drop connections.
DIRTY_ENV = ("REPRO_OBS_SYNTHETIC_SLOWDOWN", "REPRO_NET_FAULT")

#: An untraced run has ROUNDS rounds, each a round of set-ups and then
#: link calls for ``--seconds / ROUNDS``. A round sets up once, and again
#: while its set-ups have taken under SETUP_BUDGET seconds, up to SETUP_MAX.
ROUNDS, SETUP_BUDGET, SETUP_MAX = 3, 0.5, 50

#: A traced workload is flagged when more of its link time than this is
#: charged to no layer below the entry point (see ``layer_metrics``).
UNATTRIBUTED_LIMIT = 0.5

#: The spans that wrap the library or protocol call whole; their self time
#: is the entry point's own work that the trace cannot split further.
ENTRY_SPANS = ("pipeline", "protocol")

DELAY_LAYERS = ("oracle", "bridge")


def metric_units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of each ``end_to_end`` or ``per_layer`` metric."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in document[kind]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-delay",
        metavar="LAYER=SECONDS",
        help=f"negative control: sleep once per link in LAYER {DELAY_LAYERS}",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.delay = (None, 0.0)
    if args.inject_delay:
        layer, _, seconds = args.inject_delay.partition("=")
        try:
            args.delay = (layer, float(seconds))
        except ValueError:
            parser.error(f"bad --inject-delay {args.inject_delay!r}")
        if layer not in DELAY_LAYERS or args.delay[1] <= 0:
            parser.error(f"bad --inject-delay {args.inject_delay!r}")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(samples: list[float]):
    """The highest percentile with at least ten samples beyond it."""
    count = len(samples)
    if count <= 10:
        return None
    percentile = math.floor(100 * (count - 10) / count)
    ordered = sorted(samples)
    return percentile, ordered[math.ceil(percentile / 100 * count) - 1]


class Runner:
    """Drives one workload: set-ups, the cold call, the timed loop."""

    def __init__(self, workload, layers_factory):
        self.workload = workload
        self.make_layers = layers_factory
        self.attempted = 0
        self.failed = 0

    def setup(self, tracer=None) -> list[float]:
        """One round of set-ups; their wall times."""
        seconds = []
        while not seconds or (
            sum(seconds) < SETUP_BUDGET and len(seconds) < SETUP_MAX
        ):
            self.workload.reset()
            gc.collect()
            layers = self.make_layers(tracer)
            started = time.perf_counter()
            if tracer is None:
                self.workload.setup(layers)
            else:
                with tracer.root("setup"):
                    self.workload.setup(layers)
            seconds.append(time.perf_counter() - started)
        return seconds

    def call(self, tracer=None, on_output=None) -> float | None:
        """One checked link call; its wall time, or None when it failed."""
        self.attempted += 1
        layers = self.make_layers(tracer)
        try:
            started = time.perf_counter()
            if tracer is None:
                output = self.workload.link(layers)
            else:
                with tracer.root("link"):
                    output = self.workload.link(layers)
            elapsed = time.perf_counter() - started
            problems = self.workload.check(output)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        if on_output is not None:
            on_output(output, layers)
        return elapsed

    def loop(self, seconds: float, tracer=None, on_output=None) -> list[float]:
        """Link calls back to back for *seconds*; their wall times."""
        times = []
        deadline = time.perf_counter() + seconds
        while True:
            elapsed = self.call(tracer, on_output)
            if elapsed is not None:
                times.append(elapsed)
            if time.perf_counter() >= deadline:
                return times


def link_layers(root) -> dict[str, list[float]]:
    """Per span name in one link tree: [busy seconds, self seconds, calls]."""
    totals: dict[str, list[float]] = {}
    for span in root.walk():
        if span is root:
            continue
        entry = totals.setdefault(span.name, [0.0, 0.0, 0])
        entry[0] += span.seconds
        entry[1] += span.self_seconds
        entry[2] += span.calls
    return totals


def median_of(rows, key) -> float:
    values = [key(row) for row in rows]
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, setups, links, counts, untraced, traced, fail_rate):
    """Every per-layer metric; 0 for layers this workload does not run."""
    values = {name: 0.0 for name, _ in metric_units("per_layer")}
    setup_rows = [link_layers(root) for root in setups]
    for metric, span in (
        ("data.generate_s", "data.generate"),
        ("anonymize.s", "anonymize"),
        ("protocol.publish_s", "protocol.publish"),
        ("net.server_start_s", "net.server_start"),
    ):
        values[metric] = median_of(setup_rows, lambda row: row.get(span, [0.0])[0])
    rows = []
    for root, count in zip(links, counts):
        row = link_layers(root)
        row["count"] = count
        row["link"] = [root.seconds, root.self_seconds, 1]
        rows.append(row)

    def busy(row, name):
        return row.get(name, [0.0, 0.0, 0])[0]

    def own(row, name):
        return row.get(name, [0.0, 0.0, 0])[1]

    def calls(row, name):
        return row.get(name, [0.0, 0.0, 0])[2]

    for metric, span in (
        ("blocking.s", "blocking"),
        ("select.s", "select"),
        ("oracle.s", "oracle"),
        ("leftovers.s", "leftovers"),
        ("bridge.s", "bridge"),
        ("net.get_view_s", "net.get_view"),
        ("net.smc_s", "net.smc"),
        ("net.resolve_s", "net.resolve"),
        ("crypto.keygen_s", "crypto.keygen"),
    ):
        values[metric] = median_of(rows, lambda row: busy(row, span))
    for metric, span in (
        ("pipeline.self_s", "pipeline"),
        ("protocol.self_s", "protocol"),
        ("bridge.self_s", "bridge"),
        ("net.wait_s", "net.smc"),
    ):
        values[metric] = median_of(rows, lambda row: own(row, span))
    values["net.connect_s"] = median_of(
        rows, lambda row: busy(row, "net.connect") + busy(row, "net.handshake")
    )
    if any("net.smc" in row for row in rows):
        values["net.server_oracle_s"] = values["oracle.s"]
    values["oracle.calls"] = median_of(rows, lambda row: calls(row, "oracle"))
    values["bridge.calls"] = median_of(rows, lambda row: calls(row, "bridge"))
    for name in {name for row in rows for name in row["count"]}:
        values[name] = median_of(rows, lambda row: row["count"].get(name, 0))

    def ratio(numerator, denominator):
        return median_of(
            rows,
            lambda row: numerator(row) / denominator(row) if denominator(row) else 0.0,
        )

    invocations = lambda row: row["count"].get("oracle.invocations", 0)  # noqa: E731
    values["oracle.pairs_per_s"] = ratio(invocations, lambda row: busy(row, "oracle"))
    values["oracle.match_yield"] = ratio(
        lambda row: row["count"].get("oracle.matches", 0), invocations
    )
    values["bridge.pairs_per_call"] = ratio(
        invocations, lambda row: calls(row, "bridge")
    )
    if workload.crypto:
        values["crypto.ms_per_attr"] = ratio(
            lambda row: 1000 * busy(row, "oracle"),
            lambda row: row["count"].get("oracle.attribute_comparisons", 0),
        )
    values["bytes_per_pair"] = ratio(
        lambda row: row["count"].get("net.query_bytes", 0)
        + row["count"].get("net.peer_bytes", 0),
        invocations,
    )
    values["fail_rate"] = fail_rate
    if untraced and traced:
        values["trace.overhead_frac"] = min(traced) / min(untraced) - 1
    # What no layer below the entry point claims: the benchmark's own glue
    # around the call plus pipeline.self_s or protocol.self_s (on net-4500,
    # the client's work outside the net.* spans).
    values["trace.unattributed_frac"] = ratio(
        lambda row: row["link"][1] + sum(own(row, span) for span in ENTRY_SPANS),
        lambda row: row["link"][0],
    )
    return values, rows


def coverage(rows, lost) -> list[str]:
    """Spans that do not nest: a layer outlasted by its children (a span
    charged to the wrong parent) or spans left outside every link tree."""
    problems = []
    for index, (row, lost_seconds) in enumerate(zip(rows, lost)):
        if lost_seconds:
            problems.append(f"link {index}: {lost_seconds:.3g} s of spans outside the tree")
        selves = [entry[1] for name, entry in row.items() if name != "count"]
        if min(selves, default=0.0) < -1e-9:
            problems.append(f"link {index}: a layer's children outlast it")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    dirty = [name for name in DIRTY_ENV if os.environ.get(name)]
    if dirty:
        print(f"refusing to time a run with {', '.join(dirty)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from spans import Tracer
        from workloads import WORKLOADS, Layers, digest
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def make_layers(tracer):
        return Layers(tracer, args.delay)

    with WORKLOADS[args.workload](args.seed) as workload:
        runner = Runner(workload, make_layers)
        tracer = Tracer() if args.trace else None
        setup_seconds = runner.setup(tracer)
        setups = list(tracer.roots) if tracer else []

        first = {}

        def keep_first(output, layers):
            codes = workload.codes(workload.matches(output))
            first.update(
                verified_matches=len(codes),
                match_digest=digest(codes),
                smc_invocations=workload.invocations(output)[0],
                wire_bytes=workload.wire_bytes(output),
            )

        cold = runner.call(on_output=keep_first)
        if args.trace:
            links, counts, lost = [], [], []

            def keep_trace(output, layers):
                links.append(tracer.roots[-1])
                counts.append(workload.counts(output, layers))
                lost.append(sum(s.seconds for s in tracer.foreign.children.values()))

            untraced = runner.loop(args.seconds / 2)
            traced = runner.loop(args.seconds / 2, tracer, keep_trace)
            times = untraced
        else:
            times = runner.loop(args.seconds / ROUNDS)
            for _ in range(ROUNDS - 1):
                setup_seconds += runner.setup()
                times += runner.loop(args.seconds / ROUNDS)

    attempted, failed = runner.attempted, runner.failed
    fail_rate = failed / attempted
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "params": workload.params(),
        "setup_s_samples": setup_seconds,
        "setup_s_median": statistics.median(setup_seconds),
        "link_s_values": times,
        "link_s_median": statistics.median(times) if times else None,
        "cold_link_s": cold,
        "fail_rate": fail_rate,
        **first,
    }
    tail = tail_percentile(times)
    if tail:
        info["link_s_tail"] = {"percentile": tail[0], "value": tail[1]}
    if first.get("wire_bytes"):
        info["bytes_per_pair"] = first["wire_bytes"] / first["smc_invocations"]
    if args.delay[0]:
        info["inject_delay"] = {"layer": args.delay[0], "seconds": args.delay[1]}

    if args.trace:
        values, rows = layer_metrics(
            workload, setups, links, counts, untraced, traced, fail_rate
        )
        problems = coverage(rows, lost)
        info["coverage_problems"] = problems
        flagged = values["trace.unattributed_frac"] > UNATTRIBUTED_LIMIT
        info["unattributed_flag"] = flagged
        units = metric_units("per_layer")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
        for name, unit in units:
            print(f"{name:30} {values[name]:.6g} {unit}")
        print(
            f"coverage: {values['trace.unattributed_frac']:.2%} of traced link "
            f"time charged to no layer below the entry point "
            f"(limit {UNATTRIBUTED_LIMIT:.0%})"
            + ("  FLAG" if flagged else "")
            + f"; tracing overhead {values['trace.overhead_frac']:+.2%}"
        )
        for problem in problems:
            print(f"coverage problem: {problem}")
    else:
        values = {
            "link_s": min(times) if times else 0.0,
            "setup_s": min(setup_seconds),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = metric_units("end_to_end")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
        for name, unit in units:
            print(f"{name:12} {values[name]:.6g} {unit}")
        if times:
            print(f"link_s median {statistics.median(times):.6g} s", end="")
            if tail:
                print(f", p{tail[0]} {tail[1]:.6g} s", end="")
            print(f" over {len(times)} calls; cold call {cold} s")
        print(
            f"setup_s median {statistics.median(setup_seconds):.6g} s over "
            f"{len(setup_seconds)} set-ups in {ROUNDS} rounds"
        )
        if "bytes_per_pair" in info:
            print(f"bytes_per_pair {info['bytes_per_pair']:.6g} B/pair")
        print(f"fail_rate    {fail_rate:.6g} ({failed}/{attempted})")
    print("report " + json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(times),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
