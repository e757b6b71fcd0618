"""End-to-end run of the three long-running CLI roles over loopback TCP."""
import socket
import threading

from serelay.cli import main
from serelay.profile import CountermeasurePolicy


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def run_in_thread(argv, results, key):
    def target():
        results[key] = main(argv)

    thread = threading.Thread(target=target, name=key, daemon=True)
    thread.start()
    return thread


def test_three_role_deployment(tmp_path, capsys):
    se_port = free_port()
    emu_port = free_port()
    results = {}

    se_thread = run_in_thread(
        ["se-host", "--listen", f"127.0.0.1:{se_port}", "--once"], results, "se"
    )
    emu_thread = run_in_thread(
        [
            "emulator",
            "--listen",
            f"127.0.0.1:{emu_port}",
            "--seed",
            "3",
            "--out",
            str(tmp_path),
        ],
        results,
        "emulator",
    )
    # the relay app retries its connections while the other roles start up
    relay_thread = run_in_thread(
        [
            "relay-app",
            "--connect",
            f"127.0.0.1:{emu_port}",
            "--se",
            f"127.0.0.1:{se_port}",
            "--model",
            "external",
            "--seed",
            "3",
        ],
        results,
        "relay",
    )

    emu_thread.join(timeout=20)
    relay_thread.join(timeout=20)
    se_thread.join(timeout=20)
    assert not emu_thread.is_alive() and not relay_thread.is_alive()
    assert not se_thread.is_alive()

    assert results["emulator"] == 0
    assert results["relay"] == 0
    assert results["se"] == 0
    report = (tmp_path / "report.json").read_text()
    assert '"outcome": "approved"' in report


def test_emulator_reports_refused_session(tmp_path, capsys):
    policy = tmp_path / "policy-pin.json"
    CountermeasurePolicy(require_pin_on_card=True).save(policy)
    emu_port = free_port()
    results = {}

    emu_thread = run_in_thread(
        ["emulator", "--listen", f"127.0.0.1:{emu_port}", "--seed", "3"],
        results,
        "emulator",
    )
    relay_thread = run_in_thread(
        [
            "relay-app",
            "--connect",
            f"127.0.0.1:{emu_port}",
            "--policy",
            str(policy),
            "--seed",
            "3",
        ],
        results,
        "relay",
    )

    emu_thread.join(timeout=20)
    relay_thread.join(timeout=20)
    assert not emu_thread.is_alive() and not relay_thread.is_alive()

    assert results.get("emulator") == 1
    assert results["relay"] == 0
    assert "session open refused: unlock_failed" in capsys.readouterr().out
