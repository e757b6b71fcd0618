import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import serelay
from serelay.cli import build_parser, main
from serelay.profile import CardProfile, CountermeasurePolicy
from serelay.secure_element import PREPAID_AID


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_policy(tmp_path, **kwargs) -> str:
    path = tmp_path / "policy.json"
    CountermeasurePolicy(**kwargs).save(path)
    return str(path)


class TestPosDirect:
    def test_default_internal_approves(self, tmp_path, capsys):
        rc = main(["pos-direct", "--seed", "7", "--out", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "outcome: approved" in out
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["outcome"] == "approved"
        assert (tmp_path / "run" / "trace.txt").exists()

    def test_contactless_no_unlock_fails(self, capsys):
        rc = main(["pos-direct", "--origin", "contactless", "--no-unlock", "--seed", "7"])
        assert rc == 1
        assert "declined" in capsys.readouterr().out

    def test_missing_profile_file_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["pos-direct", "--profile", "/nonexistent/profile.json"])
        assert exc_info.value.code == 2

    def test_identical_seeds_identical_outputs(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["pos-direct", "--seed", "42", "--out", str(tmp_path / name)])
            assert rc == 0
        report_a = (tmp_path / "a" / "report.json").read_bytes()
        report_b = (tmp_path / "b" / "report.json").read_bytes()
        assert report_a == report_b


class TestRelayAttack:
    def test_default_wifi_approves(self, tmp_path, capsys):
        rc = main(["relay-attack", "--seed", "7", "--out", str(tmp_path / "run")])
        assert rc == 0
        assert "approved" in capsys.readouterr().out

    def test_internal_disable_policy_refuses_session(self, tmp_path, capsys):
        policy = write_policy(
            tmp_path, internal_disabled_aids=frozenset({PREPAID_AID})
        )
        rc = main(["relay-attack", "--seed", "7", "--policy", policy])
        assert rc == 1
        assert "session open refused: access_denied" in capsys.readouterr().out

    def test_pin_policy_refuses_session(self, tmp_path, capsys):
        policy = write_policy(tmp_path, require_pin_on_card=True)
        rc = main(["relay-attack", "--seed", "7", "--policy", policy])
        assert rc == 1
        assert "unlock_failed" in capsys.readouterr().out

    def test_pin_policy_bypassed_with_pin_flag(self, tmp_path):
        policy = write_policy(tmp_path, require_pin_on_card=True)
        rc = main(
            ["relay-attack", "--seed", "7", "--policy", policy, "--pin", "1234"]
        )
        assert rc == 0

    def test_internet_model_with_timeout_times_out(self, capsys):
        rc = main(
            ["relay-attack", "--seed", "7", "--model", "internet", "--timeout-ms", "500"]
        )
        assert rc == 1
        assert "timed_out" in capsys.readouterr().out

    def test_tcp_transport_round_trip(self):
        rc = main(["relay-attack", "--seed", "7", "--transport", "tcp", "--model", "external"])
        assert rc == 0

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_unusable_latency_params_are_usage_errors(self, tmp_path, capsys, transport):
        # both transports refuse the file before any run, so they agree
        path = tmp_path / "latency.json"
        path.write_text('{"internet_heavy_median": 0}')
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-attack", "--seed", "7", "--model", "internet",
                  "--transport", transport, "--latency-params", str(path)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(
            f"error: {path}: internet_heavy_median must be > 0, got 0\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    def test_overflowing_sigma_is_usage_error(self, tmp_path, capsys, transport):
        path = tmp_path / "latency.json"
        path.write_text('{"internet_heavy_sigma": 1000}')
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-attack", "--seed", "7", "--model", "internet",
                  "--transport", transport, "--latency-params", str(path)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(
            f"error: {path}: internet_heavy_sigma overflows the log-normal draw, got 1000\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [["relay-attack", "--seed", "7"], ["pos-direct", "--seed", "7"], ["se-host", "--once"]],
        ids=["relay-attack", "pos-direct", "se-host"],
    )
    @pytest.mark.parametrize("atc", ["70000", "65536", "-1"])
    def test_atc_outside_two_bytes_is_usage_error(self, monkeypatch, capsys, argv, atc):
        # refused before any run or listen, never wrapped (70000 would run as 4464)
        def wrapped_atc(*args, **kwargs):
            raise AssertionError("listened with an ATC that wrapped")

        monkeypatch.setattr(socket, "create_server", wrapped_atc)
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, f"--atc={atc}"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"serelay: error: atc must be an integer 0-65535, got {int(atc)}\n"
        assert captured.out == ""

    def test_last_atc_approves_and_rolls_over(self, capsys):
        assert main(["relay-attack", "--seed", "7", "--atc", "65535"]) == 0
        assert "cryptogram: atc=0 " in capsys.readouterr().out

    def test_identical_seeds_identical_outputs(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["relay-attack", "--seed", "11", "--out", str(tmp_path / name)])
            assert rc == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()
        assert (tmp_path / "a" / "trace.txt").read_bytes() == (
            tmp_path / "b" / "trace.txt"
        ).read_bytes()


class TestBench:
    def test_single_path_csv(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--path",
                "external",
                "--reps",
                "200",
                "--seed",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        csv_text = (tmp_path / "external.csv").read_text()
        assert csv_text.startswith("bin_start_ms,bin_end_ms,count")
        counts = [int(line.rsplit(",", 1)[1]) for line in csv_text.splitlines()[1:]]
        assert sum(counts) == 200

    def test_all_paths_write_four_files(self, tmp_path):
        rc = main(
            ["bench", "--path", "all", "--reps", "50", "--seed", "5", "--out", str(tmp_path)]
        )
        assert rc == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["external.csv", "internal.csv", "internet.csv", "wifi.csv"]

    def test_internet_median_flag_printed(self, capsys):
        rc = main(["bench", "--path", "internet", "--reps", "400", "--seed", "5"])
        assert rc == 0
        assert "median_ms>1000: true" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[]])
    def test_summary_lines_pinned(self, capsys, extra):
        # min/median/max come from the modelled delays alone
        rc = main(["bench", "--path", "all", "--reps", "200", "--seed", "3", *extra])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "external: reps=200 min_ms=22.3 median_ms=30.2 max_ms=39.1",
            "internal: reps=200 min_ms=50.1 median_ms=65.6 max_ms=79.7",
            "wifi: reps=200 min_ms=152.5 median_ms=225.8 max_ms=288.0",
            "internet: reps=200 min_ms=226.5 median_ms=1156.5 max_ms=3647.2"
            " median_ms>1000: true",
        ]

    @pytest.mark.parametrize("extra", [[]])
    def test_all_paths_output_pinned(self, tmp_path, capsys, extra):
        # digests captured when the latency draw became a keyed hash
        rc = main(
            ["bench", "--path", "all", "--reps", "200", "--seed", "3", "--ascii",
             "--out", str(tmp_path), *extra]
        )
        assert rc == 0
        out = capsys.readouterr().out
        summaries = "".join(line + "\n" for line in out.splitlines() if "reps=" in line)
        assert sha256(summaries) == (
            "118fa1d63ca2dd4f798824f560db6caba8add241b9444fcba574888c60de1126"
        )
        assert sha256(out) == "bbbef07fb50cf649f336e6e85990e886e20144fb27eace9cb246888079051d2d"
        assert {p.name: sha256(p.read_text()) for p in tmp_path.glob("*.csv")} == {
            "external.csv": "3f4934e36cd1b700f5bfb8e73744bc0d914a17b96ac380d76c9b74eeb51cfc0c",
            "internal.csv": "a274ad57a1b1051983890b1b51294a865637f5fa80fd245c7d3cd7ae317951e4",
            "wifi.csv": "25cef0c2cb81f0a7fbab0d26c8dd41bb86e3628b5c994a48dd3c558e7f728bb3",
            "internet.csv": "5a4c28a17027d628203ff41869fc428062e439e1b614f0468b6c80eb2228c713",
        }

    def test_single_path_csv_equals_all_paths_csv(self, tmp_path):
        all_dir, one_dir = tmp_path / "all", tmp_path / "one"
        argv = ["bench", "--reps", "200", "--seed", "3", "--out"]
        assert main([*argv, str(all_dir), "--path", "all"]) == 0
        for path in ("external", "internal", "wifi", "internet"):
            assert main([*argv, str(one_dir), "--path", path]) == 0
            assert (one_dir / f"{path}.csv").read_text() == (all_dir / f"{path}.csv").read_text()

    def test_tiny_bin_width_puts_every_rep_in_overflow(self, tmp_path, capsys):
        # every delay's bin quotient overflows to inf: no traceback, all in the last row
        rc = main(
            ["bench", "--path", "wifi", "--reps", "10", "--bin-width", "1e-320",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("wifi: reps=10 ")
        rows = (tmp_path / "wifi.csv").read_text().splitlines()[1:]
        assert len(rows) == 160
        assert rows[-1].endswith(",overflow,10")
        assert all(row.endswith(",0") for row in rows[:-1])

    def test_zero_reps_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--reps", "0"])
        assert exc_info.value.code == 2

    def test_include_compute_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--include-compute"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --include-compute" in capsys.readouterr().err

    def test_ascii_chart(self, capsys):
        rc = main(["bench", "--path", "external", "--reps", "100", "--seed", "5", "--ascii"])
        assert rc == 0
        assert "|#" in capsys.readouterr().out

    def test_latency_param_overrides(self, tmp_path, capsys):
        params = tmp_path / "latency.json"
        params.write_text('{"internal_low": 10.0, "internal_high": 12.0}')
        rc = main(
            [
                "bench",
                "--path",
                "internal",
                "--reps",
                "100",
                "--seed",
                "5",
                "--latency-params",
                str(params),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "min_ms=1" in out and "max_ms=1" in out  # 10-12 ms band

    def test_negative_latency_param_is_usage_error(self, tmp_path, capsys):
        params = tmp_path / "latency.json"
        params.write_text('{"internal_low": -5.0}')
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--path", "all", "--latency-params", str(params)])
        assert exc_info.value.code == 2
        assert f"error: {params}: internal_low must be >= 0, got -5.0\n" in capsys.readouterr().err

    def test_overflowing_sigma_is_usage_error(self, tmp_path, capsys):
        params = tmp_path / "latency.json"
        params.write_text('{"internet_heavy_sigma": 1000}')
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--path", "internet", "--reps", "50", "--latency-params", str(params)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "internet_heavy_sigma overflows the log-normal draw" in captured.err
        assert captured.out == ""

    def test_unknown_latency_param_is_usage_error(self, tmp_path):
        params = tmp_path / "latency.json"
        params.write_text('{"warp_factor": 9}')
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--latency-params", str(params)])
        assert exc_info.value.code == 2


class TestNonFiniteFlags:
    # nan passes every "<= 0" check, so each flag must ask for a finite value
    @pytest.mark.parametrize(
        "argv",
        [
            ["relay-attack", "--seed", "7", "--model", "internet", "--timeout-ms", "nan"],
            ["relay-attack", "--seed", "7", "--timeout-ms", "inf"],
            ["relay-attack", "--seed", "7", "--hard-ceiling-ms", "nan"],
            ["pos-direct", "--seed", "7", "--timeout-ms", "nan"],
            ["bench", "--path", "internet", "--reps", "50", "--bin-width", "inf"],
            ["bench", "--path", "internet", "--reps", "50", "--bin-width", "nan"],
        ],
        ids=lambda argv: " ".join(argv[0:1] + argv[-2:]),
    )
    def test_non_finite_number_is_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert f"{argv[-1]!r} is not a positive finite number" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestDecode:
    def test_command_decode(self, capsys):
        rc = main(["decode", "00A404000E325041592E5359532E444446303100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CLA=00 INS=A4" in out
        assert "2PAY.SYS.DDF01" in out

    def test_tlv_decode(self, capsys):
        rc = main(["decode", "--kind", "tlv", "770A82020000940408010100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "82" in out and "94" in out

    def test_response_decode(self, capsys):
        rc = main(["decode", "--kind", "rapdu", "9000"])
        assert rc == 0
        assert "SW=9000" in capsys.readouterr().out

    def test_bad_hex_is_error(self, capsys):
        rc = main(["decode", "ZZZ"])
        assert rc == 2

    @pytest.mark.parametrize("kind", ["capdu", "rapdu"])
    def test_short_frame_is_error(self, kind, capsys):
        rc = main(["decode", "--kind", kind, "90"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("00B2010C00"))
        rc = main(["decode"])
        assert rc == 0
        assert "INS=B2" in capsys.readouterr().out

    def test_empty_argument_is_decoded_not_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("00A4040000"))
        rc = main(["decode", "--kind", "capdu", ""])
        assert rc == 1
        captured = capsys.readouterr()
        assert "command frame too short (0 bytes)" in captured.err
        assert captured.out == ""


class TestConfigFiles:
    def test_custom_profile_used(self, tmp_path, capsys):
        from serelay.profile import luhn_check_digit

        pan = "543011111111111"
        pan += str(luhn_check_digit(pan))
        profile = CardProfile(pan=pan)
        path = tmp_path / "profile.json"
        profile.save(path)
        rc = main(["pos-direct", "--seed", "1", "--profile", str(path)])
        assert rc == 0
        assert f"pan={pan}" in capsys.readouterr().out

    def test_corrupt_profile_is_usage_error(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{\"pan\": \"123\"}")
        with pytest.raises(SystemExit) as exc_info:
            main(["pos-direct", "--profile", str(path)])
        assert exc_info.value.code == 2


class TestConfigFileChecks:
    def test_policy_key_typo_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        path.write_text('{"require_pin_on_crad": true}')
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-attack", "--seed", "7", "--policy", str(path)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert "require_pin_on_crad" in captured.err
        assert "approved" not in captured.out

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--profile", '{"pan_number": "5430000000070002"}'),
            ("--profile", '{"track1_atc_digits": "4"}'),
            ("--profile", '["5430000000070002"]'),
            ("--policy", '{"require_pin_on_crad": true}'),
            ("--policy", '{"require_pin_on_card": "yes"}'),
            ("--policy", "[]"),
            ("--latency-params", '{"internal_lo": 10.0}'),
            ("--latency-params", '{"internal_low": "10"}'),
            ("--latency-params", "[]"),
        ],
        ids=[
            f"{kind}-{bad}"
            for kind in ("profile", "policy", "latency")
            for bad in ("unknown-key", "wrong-type", "not-an-object")
        ],
    )
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, flag, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-attack", "--seed", "7", flag, str(path)])
        assert exc_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--profile", '{"cvc3_key": "zz"}', "cvc3_key: invalid hex string: 'zz'"),
            ("--profile", '{"cvc3_key": "00"}', "cvc3_key must be 16 bytes"),
            ("--policy", '{"internal_disabled_aids": ["A0000000"]}',
             "AID a0000000 must be 5-16 bytes"),
            ("--latency-params", '{"internal_low": -5.0}', "internal_low must be >= 0, got -5.0"),
            ("--latency-params", '{"wifi_overhead_low": 300}',
             "wifi_overhead_low must be <= wifi_overhead_high, got 300 > 210.0"),
        ],
        ids=["profile-bad-hex", "profile-short-key", "policy-short-aid",
             "latency-negative-low", "latency-low-above-high"],
    )
    def test_bad_value_names_the_file(self, tmp_path, capsys, flag, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-attack", "--seed", "7", flag, str(path)])
        assert exc_info.value.code == 2
        assert f"error: {path}: {message}\n" in capsys.readouterr().err


class TestOverflowingLatencySum:
    # every value is finite, but internal + WiFi overhead overflows to inf:
    # each role refuses the file before any run instead of approving in inf ms
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--path", "wifi", "--reps", "50"],
            ["relay-attack", "--seed", "1"],
            ["relay-attack", "--seed", "1", "--transport", "tcp"],
            ["relay-app", "--connect", "127.0.0.1:1", "--se", "inproc"],
        ],
    )
    def test_is_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "latency.json"
        path.write_text('{"internal_high": 1e308, "wifi_overhead_high": 1e308}')
        with pytest.raises(SystemExit) as exc_info:
            main([*argv, "--latency-params", str(path)])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(
            f"error: {path}: internal_high + wifi_overhead_high overflows the largest delay\n"
        )
        assert captured.out == ""


class TestRelayApp:
    def test_bad_se_address_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-app", "--connect", "127.0.0.1:1", "--se", "bogus"])
        assert exc_info.value.code == 2
        assert "argument --se: 'bogus' is not HOST:PORT" in capsys.readouterr().err

    def test_bad_pin_is_usage_error_before_any_connect(self, monkeypatch, capsys):
        # a refused connect is retried for PEER_WAIT_S and then names only
        # the refusal, so the PIN must be checked first
        def connect(*args, **kwargs):
            raise AssertionError("connected before the PIN was checked")

        monkeypatch.setattr(socket, "create_connection", connect)
        started = time.monotonic()
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-app", "--connect", "127.0.0.1:1", "--se", "127.0.0.1:2", "--pin", "12"])
        assert time.monotonic() - started < 1.0
        assert exc_info.value.code == 2
        assert "pin must be 4-8 decimal digits" in capsys.readouterr().err


class TestSeHost:
    def test_taken_port_is_one_line_error(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            with pytest.raises(SystemExit) as exc_info:
                main(["se-host", "--listen", f"127.0.0.1:{port}", "--once"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Address already in use" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["se-host", "--once", "--listen", "127.0.0.1:70000"],
        ["emulator", "--listen", "127.0.0.1:65536"],
        ["relay-app", "--connect", "127.0.0.1:99999"],
        ["relay-app", "--connect", "127.0.0.1:9", "--se", "127.0.0.1:65536"],
    ],
    ids=["se-host-listen", "emulator-listen", "relay-app-connect", "relay-app-se"],
)
def test_port_above_65535_is_usage_error(argv, monkeypatch, capsys):
    def wrapped_port(*args, **kwargs):
        raise AssertionError("connected to a port that wrapped at 65536")

    monkeypatch.setattr(socket, "create_connection", wrapped_port)
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{argv[-1]!r} is not HOST:PORT with a port of 0-65535" in err
    assert "Traceback" not in err


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_print_what_lone_calls_print(self, capsys):
        env = {**os.environ, "PYTHONPATH": str(Path(serelay.__file__).parents[1])}
        for argv in (
            ["bench", "--reps", "200", "--seed", "1"],
            ["bench", "--include-compute"],
            ["bench", "--reps", "200", "--seed", "2"],
        ):
            lone = subprocess.run(
                [sys.executable, "-m", "serelay.cli", *argv],
                capture_output=True, text=True, env=env, check=False,
            )
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (lone.returncode, lone.stdout, lone.stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--path", "wifi", "--reps", "50"],
        ["relay-attack", "--seed", "1"],
        ["relay-attack", "--seed", "1", "--transport", "tcp"],
    ],
)
def test_latency_integer_too_large_for_a_float_is_usage_error(argv, tmp_path, capsys):
    # math.isfinite raised OverflowError on it: a traceback, not exit 2
    path = tmp_path / "latency.json"
    path.write_text('{"internal_high": 1%s}' % ("0" * 399))
    with pytest.raises(SystemExit) as exc_info:
        main([*argv, "--latency-params", str(path)])
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: {path}: internal_high must be finite, got 1{'0' * 399}\n"
    )
