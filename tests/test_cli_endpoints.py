"""End-to-end run of the three long-running CLI roles over loopback TCP."""
import json
import socket
import threading

from serelay.cli import main
from serelay.latency import LatencyParams
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


def run_three_roles(out_dir, se_args=(), emulator_args=(), relay_args=()):
    """se-host, emulator and relay-app on loopback; returns each role's exit code."""
    se_port = free_port()
    emu_port = free_port()
    results = {}
    threads = [
        run_in_thread(
            ["se-host", "--listen", f"127.0.0.1:{se_port}", "--once", *se_args],
            results,
            "se",
        ),
        run_in_thread(
            [
                "emulator",
                "--listen",
                f"127.0.0.1:{emu_port}",
                "--out",
                str(out_dir),
                *emulator_args,
            ],
            results,
            "emulator",
        ),
        # the relay app retries its connections while the other roles start up
        run_in_thread(
            [
                "relay-app",
                "--connect",
                f"127.0.0.1:{emu_port}",
                "--se",
                f"127.0.0.1:{se_port}",
                *relay_args,
            ],
            results,
            "relay",
        ),
    ]
    for thread in threads:
        thread.join(timeout=20)
    assert not any(thread.is_alive() for thread in threads)
    return results


def small_delays(tmp_path) -> str:
    """A latency file whose relay delays are fractions of a millisecond."""
    path = tmp_path / "delays.json"
    LatencyParams(
        internal_low=0.1,
        internal_high=0.2,
        wifi_overhead_low=0.1,
        wifi_overhead_high=0.2,
    ).save(path)
    return str(path)


def without_timings(report_path) -> dict:
    report = json.loads(report_path.read_text())
    del report["total_ms"]
    for step in report["steps"]:
        del step["elapsed_ms"]
    return report


def test_three_role_deployment(tmp_path, capsys):
    results = run_three_roles(
        tmp_path,
        emulator_args=["--seed", "3"],
        relay_args=["--model", "external", "--seed", "3"],
    )

    assert results == {"se": 0, "emulator": 0, "relay": 0}
    report = (tmp_path / "report.json").read_text()
    assert '"outcome": "approved"' in report


def test_three_roles_reproduce_relay_attack(tmp_path, capsys):
    delays = small_delays(tmp_path)
    results = run_three_roles(
        tmp_path / "roles",
        se_args=["--atc", "41"],
        emulator_args=["--seed", "5"],
        relay_args=["--latency-params", delays, "--seed", "5"],
    )
    assert results == {"se": 0, "emulator": 0, "relay": 0}
    inproc = tmp_path / "inproc"
    argv = ["relay-attack", "--seed", "5", "--atc", "41", "--latency-params", delays]
    assert main([*argv, "--out", str(inproc)]) == 0

    report = without_timings(tmp_path / "roles" / "report.json")
    assert report == without_timings(inproc / "report.json")
    assert report["outcome"] == "approved" and report["atc"] == 42


def test_three_roles_refuse_like_relay_attack(tmp_path, capsys):
    delays = small_delays(tmp_path)
    policy = tmp_path / "policy-pin.json"
    CountermeasurePolicy(require_pin_on_card=True).save(policy)
    results = run_three_roles(
        tmp_path / "roles",
        se_args=["--policy", str(policy)],
        emulator_args=["--seed", "5"],
        relay_args=["--latency-params", delays, "--seed", "5"],
    )
    roles_out = capsys.readouterr().out
    assert results == {"se": 0, "emulator": 1, "relay": 0}
    argv = ["relay-attack", "--seed", "5", "--policy", str(policy)]
    assert main([*argv, "--latency-params", delays]) == 1

    refusal = "session open refused: unlock_failed\n"
    assert refusal in roles_out
    assert capsys.readouterr().out == refusal
    assert not (tmp_path / "roles" / "report.json").exists()


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
