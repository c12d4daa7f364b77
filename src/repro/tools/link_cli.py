"""``repro-link``: hybrid private record linkage over two CSV files.

A downstream-user front end to the library: point it at two CSV files,
describe the matching attributes, and it runs the full pipeline —
anonymization, blocking, budgeted SMC, evaluation-grade reporting — and
writes the verified matches as a CSV of index pairs.

Usage::

    repro-link left.csv right.csv \\
        --attr age=continuous:0.05 \\
        --attr city=categorical:0.5 \\
        --attr surname=string:1 \\
        --k 16 --allowance 0.02 --out matches.csv

Attribute specs are ``NAME=KIND:THETA`` with KIND one of ``continuous``,
``categorical``, ``string``. Hierarchies are built automatically from the
data: equi-width interval trees over the observed range for continuous
attributes, flat ``ANY -> values`` taxonomies for categorical ones, and
prefix hierarchies for strings. Columns without a spec ride along as
payload. For research-grade control (custom VGHs, real crypto backends,
strategies 2/3) use the library API instead.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass

from repro.anonymize import DataFly, Incognito, MaxEntropyTDS, Mondrian, TDS
from repro.data.schema import Attribute, Relation, Schema
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy
from repro.errors import ReproError
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.heuristics import heuristic_by_name
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.obs import NOOP_TELEMETRY, Telemetry

ANONYMIZERS = {
    "maxent": MaxEntropyTDS,
    "tds": TDS,
    "datafly": DataFly,
    "mondrian": Mondrian,
    "incognito": Incognito,
}

KINDS = ("continuous", "categorical", "string")


@dataclass(frozen=True)
class AttrSpec:
    """A parsed ``NAME=KIND:THETA`` attribute specification."""

    name: str
    kind: str
    theta: float


def parse_attr_spec(text: str) -> AttrSpec:
    """Parse one ``NAME=KIND:THETA`` argument."""
    try:
        name, rest = text.split("=", 1)
        kind, theta_text = rest.split(":", 1)
        theta = float(theta_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad attribute spec {text!r}; expected NAME=KIND:THETA"
        ) from None
    if kind not in KINDS:
        raise argparse.ArgumentTypeError(
            f"bad kind {kind!r} in {text!r}; choose from {KINDS}"
        )
    if theta < 0:
        raise argparse.ArgumentTypeError(f"negative theta in {text!r}")
    return AttrSpec(name, kind, theta)


def load_csv(path: str, specs: dict[str, AttrSpec]) -> Relation:
    """Load a CSV file, typing columns from the attribute specs.

    Spec'd continuous columns are parsed as numbers; every other column is
    kept as text (payload columns never influence the linkage).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ReproError(f"{path}: empty file")
        attributes = []
        for name in header:
            spec = specs.get(name)
            if spec is not None and spec.kind == "continuous":
                attributes.append(Attribute.continuous(name))
            else:
                attributes.append(Attribute.categorical(name))
        schema = Schema(attributes)
        continuous = [attribute.is_continuous for attribute in schema]
        records = []
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ReproError(
                    f"{path}:{row_number}: {len(row)} fields, "
                    f"expected {len(header)}"
                )
            record = []
            for is_continuous, text in zip(continuous, row):
                if is_continuous:
                    number = float(text)
                    record.append(int(number) if number.is_integer() else number)
                else:
                    record.append(text)
            records.append(tuple(record))
    return Relation(schema, records, validate=False)


def build_hierarchies(
    specs: list[AttrSpec],
    left: Relation,
    right: Relation,
    provided: dict | None = None,
) -> dict:
    """Derive a hierarchy per spec from the union of observed values.

    Attributes present in *provided* (a catalog loaded with
    ``--hierarchies``) use the supplied hierarchy instead of a derived
    one; a provided hierarchy must be of the kind the spec declares.
    """
    provided = provided or {}
    hierarchies = {}
    expected_types = {
        "continuous": IntervalHierarchy,
        "categorical": CategoricalHierarchy,
        "string": PrefixHierarchy,
    }
    for spec in specs:
        supplied = provided.get(spec.name)
        if supplied is not None:
            if not isinstance(supplied, expected_types[spec.kind]):
                raise ReproError(
                    f"hierarchy for {spec.name!r} is not {spec.kind}"
                )
            hierarchies[spec.name] = supplied
            continue
        values = set(left.column(spec.name)) | set(right.column(spec.name))
        if spec.kind == "continuous":
            lo = min(values)
            hi = max(values) + 1
            width = max((hi - lo) / 16.0, 1e-9)
            hierarchies[spec.name] = IntervalHierarchy.equi_width(
                spec.name, lo, hi, width, levels=3
            )
        elif spec.kind == "categorical":
            hierarchies[spec.name] = CategoricalHierarchy(
                spec.name, {"ANY": sorted(values)}
            )
        else:
            longest = max((len(value) for value in values), default=1)
            hierarchies[spec.name] = PrefixHierarchy(
                spec.name, max_length=max(longest, 1)
            )
    return hierarchies


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-link`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-link",
        description="Hybrid private record linkage over two CSV files "
        "(ICDE 2008 method).",
    )
    parser.add_argument(
        "left", nargs="?", default=None, help="first CSV file (D1)"
    )
    parser.add_argument(
        "right", nargs="?", default=None, help="second CSV file (D2)"
    )
    parser.add_argument(
        "--remote",
        default=None,
        metavar="alice=HOST:PORT,bob=HOST:PORT",
        help="link against remote repro-party holders instead of local "
        "CSVs (requires --hierarchies; no CSV arguments)",
    )
    parser.add_argument(
        "--attr",
        dest="attrs",
        type=parse_attr_spec,
        action="append",
        required=True,
        metavar="NAME=KIND:THETA",
        help="matching attribute spec; repeatable",
    )
    parser.add_argument("--k", type=int, default=16, help="anonymity requirement")
    parser.add_argument(
        "--allowance",
        type=float,
        default=0.015,
        help="SMC allowance as a fraction of |D1 x D2|",
    )
    parser.add_argument(
        "--heuristic",
        choices=("minFirst", "maxLast", "minAvgFirst", "random"),
        default="minAvgFirst",
        help="selection heuristic for the SMC step",
    )
    parser.add_argument(
        "--anonymizer",
        choices=sorted(ANONYMIZERS),
        default="maxent",
        help="anonymization algorithm",
    )
    parser.add_argument(
        "--hierarchies",
        default=None,
        metavar="FILE",
        help="JSON hierarchy catalog (see repro.data.vgh_io); attributes "
        "not in the catalog get automatically derived hierarchies",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write verified matches as CSV (left_index,right_index)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a structured run report (span tree + metrics) as JSON",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live phase progress on stderr (a status bar on a TTY, "
        "periodic log lines otherwise)",
    )
    return parser


def run_remote(args, parser: argparse.ArgumentParser) -> int:
    """The ``--remote`` path: drive repro-party holders over the network."""
    from repro.data.vgh_io import load_catalog
    from repro.net import QueryingPartyClient, parse_remote_spec

    if args.left or args.right:
        parser.error("--remote takes no CSV arguments; the holders have the data")
    if not args.hierarchies:
        parser.error(
            "--remote requires --hierarchies: hierarchies are normally "
            "derived from the union of both datasets, which no single "
            "party holds — all three parties must share one catalog"
        )
    specs = {spec.name: spec for spec in args.attrs}
    telemetry = Telemetry() if args.metrics_out else NOOP_TELEMETRY
    try:
        parties = parse_remote_spec(args.remote)
        catalog = load_catalog(args.hierarchies)
        missing = [name for name in specs if name not in catalog]
        if missing:
            raise ReproError(
                f"hierarchy catalog {args.hierarchies} does not cover {missing}"
            )
        rule = MatchRule(
            MatchAttribute(spec.name, catalog[spec.name], spec.theta)
            for spec in args.attrs
        )
        client = QueryingPartyClient(
            rule,
            parties["alice"],
            parties["bob"],
            allowance=args.allowance,
            heuristic=heuristic_by_name(args.heuristic),
            telemetry=telemetry,
        )
        result = client.run()
    except ReproError as error:
        print(f"repro-link: {error}", file=sys.stderr)
        return 1
    print(result.summary())
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("left_index", "right_index"))
            writer.writerows(result.verified_matches)
        print(
            f"wrote {len(result.verified_matches)} verified matches to {args.out}"
        )
    if args.metrics_out:
        telemetry.write_report(
            args.metrics_out,
            context={
                "tool": "repro-link",
                "mode": "remote",
                "remote": args.remote,
                "k": args.k,
                "allowance": args.allowance,
                "heuristic": args.heuristic,
            },
        )
        print(f"wrote run report to {args.metrics_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.remote:
        return run_remote(args, parser)
    if not args.left or not args.right:
        parser.error("two CSV files are required (or use --remote)")
    specs = {spec.name: spec for spec in args.attrs}
    telemetry = Telemetry() if (args.metrics_out or args.progress) else NOOP_TELEMETRY
    if args.progress:
        from repro.obs import ProgressRenderer

        telemetry.progress = ProgressRenderer()
    try:
        try:
            with telemetry.span("load"):
                left = load_csv(args.left, specs)
                right = load_csv(args.right, specs)
            if left.schema != right.schema:
                raise ReproError("the two CSV files have different headers")
            for name in specs:
                if name not in left.schema:
                    raise ReproError(
                        f"attribute {name!r} not found in the CSV header"
                    )
            with telemetry.span("hierarchies"):
                provided = None
                if args.hierarchies:
                    from repro.data.vgh_io import load_catalog

                    provided = load_catalog(args.hierarchies)
                hierarchies = build_hierarchies(args.attrs, left, right, provided)
            rule = MatchRule(
                MatchAttribute(spec.name, hierarchies[spec.name], spec.theta)
                for spec in args.attrs
            )
            anonymizer = ANONYMIZERS[args.anonymizer](hierarchies)
            qids = tuple(spec.name for spec in args.attrs)
            with telemetry.span("anonymize", algorithm=args.anonymizer, k=args.k):
                left_gen = anonymizer.anonymize(left, qids, args.k)
                right_gen = anonymizer.anonymize(right, qids, args.k)
            config = LinkageConfig(
                rule,
                allowance=args.allowance,
                heuristic=heuristic_by_name(args.heuristic),
                telemetry=telemetry,
            )
            result = HybridLinkage(config).run(left_gen, right_gen)
        finally:
            telemetry.progress.close()
    except ReproError as error:
        print(f"repro-link: {error}", file=sys.stderr)
        return 1
    print(result.summary())
    if args.out:
        matches = sorted(set(result.iter_verified_matches()))
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("left_index", "right_index"))
            writer.writerows(matches)
        print(f"wrote {len(matches)} verified matches to {args.out}")
    if args.metrics_out:
        telemetry.write_report(
            args.metrics_out,
            context={
                "tool": "repro-link",
                "k": args.k,
                "allowance": args.allowance,
                "heuristic": args.heuristic,
                "anonymizer": args.anonymizer,
            },
        )
        print(f"wrote run report to {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
