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


def run_cli(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    # a role that waits for a peer gives up after cli.PEER_WAIT_S (30 s);
    # a usage error must come long before that
    return subprocess.run(
        [sys.executable, "-m", "serelay.cli", *argv],
        capture_output=True, text=True, env=ENV, cwd=cwd, timeout=10, check=False,
    )


def assert_usage_error(done: subprocess.CompletedProcess, message: str) -> None:
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr


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
    assert_usage_error(run_cli("relay-app", "--connect", "127.0.0.1:1", *argv), message)


# the files the cases below name, written into the directory each one runs in
FILES = {
    "typo-policy.json": '{"require_pin_on_crad": true}',
    # an integer too large for a float
    "huge-int.json": '{"internal_high": 1' + "0" * 399 + "}",
    # a sigma whose log-normal draw overflows exp
    "wide-sigma.json": '{"internet_heavy_sigma": 1000}',
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relay-attack", "--seed", "7", "--policy", "typo-policy.json"],
         "typo-policy.json: unknown key 'require_pin_on_crad'"),
        (["se-host", "--listen", "127.0.0.1:70000", "--once"],
         "'127.0.0.1:70000' is not HOST:PORT with a port of 0-65535"),
        # not a counter that wrapped
        (["relay-attack", "--seed", "7", "--atc", "70000"],
         "atc must be an integer 0-65535, got 70000"),
        (["bench", "--path", "wifi", "--reps", "50", "--latency-params", "huge-int.json"],
         "huge-int.json: internal_high must be finite"),
        (["relay-attack", "--seed", "7", "--latency-params", "huge-int.json"],
         "huge-int.json: internal_high must be finite"),
        # a non-finite number would switch the terminal's timeout off
        (["relay-attack", "--seed", "7", "--timeout-ms", "nan"],
         "argument --timeout-ms: 'nan' is not a positive finite number"),
        (["bench", "--path", "internet", "--reps", "50", "--latency-params", "wide-sigma.json"],
         "wide-sigma.json: internet_heavy_sigma overflows the log-normal draw"),
        # bench bins modelled delays only, so it takes no host-compute option
        (["bench", "--include-compute"], "unrecognized arguments: --include-compute"),
        # a bad bin layout fails before any delay is drawn and before --out is made
        (["bench", "--bins", "1", "--out", "bad-layout"], "bin_count must be at least 2"),
        (["bench", "--reps", "0"], "argument --reps: '0' is not a positive integer"),
    ],
    ids=[
        "typo-policy", "big-port", "big-atc", "huge-int-bench", "huge-int-relay",
        "nan-timeout", "wide-sigma", "include-compute", "bad-layout-out", "zero-reps",
    ],
)
def test_usage_error(argv, message, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert_usage_error(run_cli(*argv, cwd=tmp_path), message)
    # nothing is written, --out included
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(FILES)
