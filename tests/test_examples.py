"""Every example script runs to completion against the current API.

Each script runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, as
the README tells a reader to run it; ``three_party_protocol.py --net``
also runs its loopback-socket variant.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
RUNS = [
    *(
        pytest.param([path.name], id=path.stem)
        for path in sorted(EXAMPLES.glob("*.py"))
    ),
    pytest.param(
        ["three_party_protocol.py", "--net"], id="three_party_protocol-net"
    ),
]


@pytest.mark.parametrize("argv", RUNS)
def test_example_exits_cleanly(argv):
    script, *arguments = argv
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *arguments],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
