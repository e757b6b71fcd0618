"""The console's usage checks, each run as the process a shell would start.

Every case runs ``python -m serelay.cli`` and reads what a script reads: the
exit status and stderr. A usage error exits 2 and names what was wrong in one
line, with no traceback.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import serelay

# the package under test, whether it is installed or only on sys.path
ENV = {**os.environ, "PYTHONPATH": str(Path(serelay.__file__).parents[1])}


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    # a role that waits for a peer gives up after cli.PEER_WAIT_S (30 s);
    # a usage error must come long before that
    return subprocess.run(
        [sys.executable, "-m", "serelay.cli", *argv],
        capture_output=True, text=True, env=ENV, timeout=10, check=False,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--se", "bogus"], "argument --se: 'bogus' is not HOST:PORT"),
        # checked before the relay app connects to its SE host, which here
        # refuses every connect
        (["--se", "127.0.0.1:2", "--pin", "12"], "pin must be 4-8 decimal digits"),
    ],
    ids=["bad-se", "bad-pin"],
)
def test_relay_app_usage_error(argv, message):
    done = run_cli("relay-app", "--connect", "127.0.0.1:1", *argv)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
