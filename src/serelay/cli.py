"""Command-line entry point for the relay-attack testbed.

Subcommands:
  pos-direct    terminal transaction straight against the in-process SE
  relay-attack  full relay chain (terminal / card emulator / relay app)
  bench         round-trip delay benchmark with histogram CSV export
  decode        pretty-print hex APDUs or TLV structures
  se-host       serve a secure element's internal channel over TCP
  relay-app     phone-side relay endpoint connecting to a card emulator
  emulator      card-emulator endpoint that runs a terminal transaction
"""
from __future__ import annotations

import argparse
import functools
import logging
import math
import socket
import sys
from pathlib import Path
from typing import Optional

from . import tlv
from .apdu import CommandApdu, MalformedApdu, ResponseApdu
from .bench import histogram_to_csv, render_ascii, sample_benchmark
from .hexutil import format_hex, parse_hex
from .latency import AccessPath, LatencyModel, LatencyParams
from .profile import CardProfile, CountermeasurePolicy, check_pin
from .relay import (
    CardEmulator,
    RelayApp,
    RemoteSecureElement,
    SecureElementHost,
    SocketTransport,
    connect,
)
from .scenarios import (
    RelayAttackResult,
    _run_relayed_transaction,
    resolve_seed,
    run_pos_direct,
    run_relay_attack,
)
from .secure_element import ChannelOrigin, SecureElement
from .terminal import TerminalConfig, TransactionReport

logger = logging.getLogger(__name__)

# how long a role keeps trying to reach a peer role that is still starting up
PEER_WAIT_S = 30.0

TAG_NAMES = {
    "6F": "FCI template",
    "84": "DF name",
    "A5": "FCI proprietary template",
    "BF0C": "FCI issuer discretionary data",
    "61": "application template",
    "4F": "application identifier",
    "87": "application priority indicator",
    "50": "application label",
    "77": "response message template",
    "82": "application interchange profile",
    "94": "application file locator",
    "70": "data file record template",
    "56": "track 1 data",
    "9F6B": "track 2 data",
    "9F6C": "application version number",
    "9F62": "track 1 CVC3 bitmap",
    "9F63": "track 1 UN/ATC bitmap",
    "9F64": "track 1 ATC digit count",
    "9F65": "track 2 CVC3 bitmap",
    "9F66": "track 2 UN/ATC bitmap",
    "9F67": "track 2 ATC digit count",
    "9F60": "CVC3 track 1",
    "9F61": "CVC3 track 2",
    "9F36": "application transaction counter",
    "83": "command template",
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 0xFFFF:
        raise argparse.ArgumentTypeError(f"{text!r} is not HOST:PORT with a port of 0-65535")
    return host, int(port)


def _se_address(text: str) -> str | tuple[str, int]:
    """``'inproc'`` or the HOST:PORT of an se-host."""
    return text if text == "inproc" else _host_port(text)


def _load(config_type, path: Optional[str]):
    """The config file at ``path`` (a :class:`JsonConfig`), or ``None``."""
    return config_type.load(path) if path else None


def _finish(report: TransactionReport, out_dir: Optional[str]) -> int:
    """Print and save the report; the exit code says whether it was approved."""
    print(report.render_trace())
    if report.pan:
        print(
            f"track2: pan={report.pan} expiry={report.expiry} "
            f"service={report.service_code}"
        )
    if report.atc is not None:
        print(
            f"cryptogram: atc={report.atc} "
            f"cvc3_t1={format_hex(report.cvc3_track1 or b'')} "
            f"cvc3_t2={format_hex(report.cvc3_track2 or b'')}"
        )
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json() + "\n")
        (out / "trace.txt").write_text(report.render_trace() + "\n")
    return 0 if report.approved else 1


def _finish_relay(result: RelayAttackResult, out_dir: Optional[str]) -> int:
    if result.session_error is not None:
        print(f"session open refused: {result.session_error}")
        return 1
    assert result.report is not None
    return _finish(result.report, out_dir)


def _secure_element(args: argparse.Namespace) -> SecureElement:
    """The secure element that the card options describe."""
    return SecureElement(
        profile=_load(CardProfile, args.profile),
        policy=_load(CountermeasurePolicy, args.policy),
        atc=args.atc,
    )


def cmd_pos_direct(args: argparse.Namespace) -> int:
    report = run_pos_direct(
        origin=ChannelOrigin(args.origin),
        se=_secure_element(args),
        unlock=args.unlock,
        pin=args.pin,
        seed=args.seed,
        path=AccessPath(args.model) if args.model else None,
        latency_params=_load(LatencyParams, args.latency_params),
        timeout_ms=args.timeout_ms,
    )
    return _finish(report, args.out)


def cmd_relay_attack(args: argparse.Namespace) -> int:
    result = run_relay_attack(
        se=_secure_element(args),
        path=AccessPath(args.model),
        latency_params=_load(LatencyParams, args.latency_params),
        seed=args.seed,
        timeout_ms=args.timeout_ms,
        relay_pin=args.pin,
        hard_ceiling_ms=args.hard_ceiling_ms,
        transport=args.transport,
    )
    return _finish_relay(result, args.out)


def cmd_bench(args: argparse.Namespace) -> int:
    paths = list(AccessPath) if args.path == "all" else [AccessPath(args.path)]
    params = _load(LatencyParams, args.latency_params)
    results = sample_benchmark(paths, args.reps, args.seed, params, args.bin_width, args.bins)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for path, (hist, samples) in zip(paths, results):
        samples.sort()
        median = samples[len(samples) // 2]
        summary = (
            f"{path.value}: reps={args.reps} min_ms={samples[0]:.1f} "
            f"median_ms={median:.1f} max_ms={samples[-1]:.1f}"
        )
        if path is AccessPath.RELAY_INTERNET:
            summary += f" median_ms>1000: {str(median > 1000).lower()}"
        print(summary)
        if args.ascii:
            print(render_ascii(hist))
        if out_dir:
            (out_dir / f"{path.value}.csv").write_text(histogram_to_csv(hist))
    return 0


def _describe_tlv(nodes, indent: int = 0) -> None:
    pad = "  " * indent
    for node in nodes:
        tag_hex = format_hex(node.tag)
        name = TAG_NAMES.get(tag_hex, "")
        label = f" ({name})" if name else ""
        if node.is_constructed:
            print(f"{pad}{tag_hex}{label} len={len(node.payload)}")
            _describe_tlv(node.children, indent + 1)
        else:
            shown = format_hex(node.value) + _ascii_note(node.value)
            print(f"{pad}{tag_hex}{label} len={len(node.value)}: {shown}")


def _ascii_note(data: bytes) -> str:
    """`` 'text'`` when every byte of ``data`` is printable ASCII, else empty."""
    if data and all(0x20 <= b < 0x7F for b in data):
        return f" '{data.decode('ascii')}'"
    return ""


def cmd_decode(args: argparse.Namespace) -> int:
    text = sys.stdin.read() if args.hex is None else args.hex
    try:
        raw = parse_hex(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kind = args.kind
    if kind == "auto":
        kind = "capdu"
        try:
            CommandApdu.parse(raw)
        except MalformedApdu:
            kind = "tlv"
    try:
        if kind == "tlv":
            _describe_tlv(tlv.decode(raw))
            return 0
        if kind == "capdu":
            cmd = CommandApdu.parse(raw)
            data = cmd.data
            print(
                f"CLA={cmd.cla:02X} INS={cmd.ins:02X} P1={cmd.p1:02X} P2={cmd.p2:02X}"
                + (f" Lc={len(data)}" if data else "")
                + (f" Le={cmd.le:02X}" if cmd.le is not None else "")
            )
            if data:
                print(f"data: {format_hex(data)}{_ascii_note(data)}")
        else:
            resp = ResponseApdu.parse(raw)
            data = resp.data
            print(f"SW={resp.sw:04X} data ({len(data)} bytes)")
    except (MalformedApdu, tlv.TlvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:  # an APDU's data is shown as TLV where it parses as TLV
        _describe_tlv(tlv.decode(data), indent=1)
    except tlv.TlvError:
        pass
    return 0


def cmd_se_host(args: argparse.Namespace) -> int:
    se = _secure_element(args)
    host, _port = args.listen
    with socket.create_server(args.listen, backlog=1) as listener:
        print(f"secure element listening on {host}:{listener.getsockname()[1]}")
        try:
            while True:
                conn, peer = listener.accept()
                logger.info("SE host: connection from %s", peer)
                SecureElementHost(se).serve(SocketTransport(conn))
                if args.once:
                    return 0
        except KeyboardInterrupt:
            return 0


def cmd_relay_app(args: argparse.Namespace) -> int:
    seed = resolve_seed(args.seed)
    model = LatencyModel(
        AccessPath(args.model), seed, _load(LatencyParams, args.latency_params)
    )
    if args.pin is not None:
        check_pin(args.pin)  # a usage error before any connect
    se_link = None if args.se == "inproc" else connect(args.se, PEER_WAIT_S)
    relay = RelayApp(
        _secure_element(args) if se_link is None else RemoteSecureElement(se_link),
        model=model,
        pin=args.pin,
        hard_ceiling_ms=args.hard_ceiling_ms,
    )
    host, port = args.connect
    print(f"relay app connecting to {host}:{port} (seed={seed})")
    try:
        relay.serve(connect(args.connect, PEER_WAIT_S))
    finally:
        if se_link is not None:
            se_link.close()
    return 0


def cmd_emulator(args: argparse.Namespace) -> int:
    host, _port = args.listen
    with socket.create_server(args.listen, backlog=1) as listener:
        print(f"card emulator waiting for the relay app on {host}:{listener.getsockname()[1]}")
        conn, peer = listener.accept()
    print(f"relay app connected from {peer[0]}:{peer[1]}; activating field")
    result = _run_relayed_transaction(
        CardEmulator(SocketTransport(conn)),
        se=None,
        cfg=TerminalConfig(timeout_ms=args.timeout_ms, seed=resolve_seed(args.seed)),
    )
    return _finish_relay(result, args.out)


@functools.cache  # parsing leaves no state behind, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serelay",
        description="Secure-element relay attack simulation testbed",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    paths = [path.value for path in AccessPath]

    # option groups shared between roles; each shared flag is declared only here
    def card(p: argparse.ArgumentParser) -> None:
        p.add_argument("--profile", help="card profile JSON file")
        p.add_argument("--policy", help="countermeasure policy JSON file")
        p.add_argument("--atc", type=int, default=0, help="initial transaction counter")

    def delays(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--latency-params", help="JSON file overriding delay distribution knobs"
        )

    def seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, help="seed for all randomness")

    def terminal(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="directory for report files")
        p.add_argument("--timeout-ms", type=_positive_float)

    def relay(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=paths, default=AccessPath.RELAY_WIFI.value)
        p.add_argument("--pin", help="wallet PIN known to the relay app, if any")
        p.add_argument("--hard-ceiling-ms", type=_positive_float)

    def role(name: str, func, summary: str, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for group in groups:
            group(p)
        p.set_defaults(func=func)
        return p

    p = role(
        "pos-direct", cmd_pos_direct, "terminal against the in-process SE",
        card, delays, seed, terminal,
    )
    p.add_argument(
        "--origin",
        choices=[o.value for o in ChannelOrigin],
        default="internal",
        help="channel the terminal talks through",
    )
    unlock = p.add_mutually_exclusive_group()
    unlock.add_argument("--unlock", dest="unlock", action="store_true", default=True)
    unlock.add_argument("--no-unlock", dest="unlock", action="store_false")
    p.add_argument("--pin", help="wallet PIN for the on-card verification step")
    p.add_argument(
        "--model", choices=paths, help="latency model (default: matches the origin)"
    )

    p = role(
        "relay-attack", cmd_relay_attack, "terminal / emulator / relay app chain",
        card, delays, seed, terminal, relay,
    )
    p.add_argument(
        "--transport",
        choices=["inproc", "tcp"],
        default="inproc",
        help="inproc = virtual clock, tcp = loopback sockets with real delays",
    )

    p = role("bench", cmd_bench, "delay benchmark with histogram export", delays)
    p.add_argument("--path", choices=paths + ["all"], default="all")
    p.add_argument("--reps", type=_positive_int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bin-width", type=_positive_float, default=50.0)
    p.add_argument("--bins", type=_positive_int, default=160)
    p.add_argument("--ascii", action="store_true", help="print bar charts")
    p.add_argument("--out", help="directory for per-path CSV files")

    p = role("decode", cmd_decode, "pretty-print hex APDUs or TLV")
    p.add_argument("hex", nargs="?", help="hex string (stdin when omitted)")
    p.add_argument(
        "--kind", choices=["auto", "capdu", "rapdu", "tlv"], default="auto"
    )

    p = role("se-host", cmd_se_host, "serve a secure element over TCP", card)
    p.add_argument("--listen", type=_host_port, default=("127.0.0.1", 9750))
    p.add_argument("--once", action="store_true", help="exit after one connection")

    p = role(
        "relay-app", cmd_relay_app, "phone-side relay endpoint",
        card, delays, seed, relay,
    )
    p.add_argument("--connect", type=_host_port, required=True, help="emulator address")
    p.add_argument(
        "--se",
        type=_se_address,
        default="inproc",
        help="'inproc' or HOST:PORT of se-host; the card options apply to inproc",
    )

    p = role(
        "emulator", cmd_emulator, "card emulator + terminal endpoint", seed, terminal
    )
    p.add_argument("--listen", type=_host_port, default=("127.0.0.1", 9751))

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FileNotFoundError, JSONDecodeError too
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
