"""Drop the wall-clock ``timing`` table from a ``repro-bench --json`` file.

Every other table is a function of the seed and the record count alone,
so what is left pins the paper's tables exactly. The committed pin of the
default scale (4,500 records) is checked with::

    PYTHONPATH=src python -m repro.bench.cli --json /tmp/tables.json
    python benchmarks/strip_timing.py /tmp/tables.json > /tmp/pinned.json
    diff benchmarks/paper_tables_4500.json /tmp/pinned.json

A change meant to move a table rewrites the pin the same way.
"""

import json
import sys


def main(path: str) -> None:
    with open(path) as handle:
        payload = json.load(handle)
    payload["experiments"] = [
        table for table in payload["experiments"] if table["experiment"] != "timing"
    ]
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
