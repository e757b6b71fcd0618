"""Per-layer spans around serelay's public functions, installed from outside.

``Tracer.install`` wraps every public function a layer module defines and
every public method (and ``__init__``) of its classes, then rebinds each
module-level reference inside serelay, so calls made through
``from .module import name`` are traced as well. ``uninstall`` restores the
originals. The wrappers record nothing unless ``active`` is set, which the
harness does around each timed op only, so the benchmark's own checks stay
out of the counts.

A span is ``(id, parent id, name, start ns, end ns, thread id)``; a layer's
self time is the duration of its spans minus that of their child spans.
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "apdu",
    "tlv",
    "hexutil",
    "profile",
    "secure_element",
    "latency",
    "relay",
    "terminal",
    "scenarios",
    "bench",
    "cli",
)

# blocking on the socket is waiting, not work of the relay layer
WAIT_SPAN = "relay.SocketTransport.recv_frame"
SCENARIO_SPANS = ("scenarios.run_relay_attack", "scenarios.run_pos_direct")
FIRST_EXCHANGE_SPANS = ("relay.CardEmulator.activate_field", "terminal.run_transaction")
CLOCK_SPANS = ("latency.VirtualClock.sleep_ms", "latency.WallClock.sleep_ms")
EXTRA_TIMES = (
    "relay.frame_codec_us",
    "relay.transport_wait_us",
    "scenarios.setup_us",
    "scenarios.join_wait_us",
    "bench.csv_us",
)


def _observe_se(tracer, args, result) -> None:
    _se, origin, cmd = args[:3]
    tracer.se_pairs.append(
        ((origin.value, cmd.cla, cmd.ins, cmd.p1, cmd.p2, cmd.data, cmd.le),
         (result.data, result.sw1, result.sw2))
    )


def _observe_delay(tracer, args, result) -> None:
    tracer.used_delays.append(args[1])


OBSERVERS = {
    "secure_element.SecureElement.process": _observe_se,
    "bench.Histogram.add": _observe_delay,
    **{name: _observe_delay for name in CLOCK_SPANS},
}


def _traceable(cls) -> bool:
    return not (
        issubclass(cls, (BaseException, enum.Enum)) or getattr(cls, "_is_protocol", False)
    )


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.se_pairs: list[tuple] = []
        self.used_delays: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self.ops = 0
        self.first_op_spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra_ns: Counter = Counter()
        self.non_9000 = 0
        self.repeats = 0
        self.responses = 0
        self.delays_used = 0
        self.modelled_ms = 0.0
        self._seen: dict = defaultdict(set)

    # -- installation -----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name: str):
        tracer = self
        observer = OBSERVERS.get(name)
        clock = time.perf_counter_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, ident()))
            if observer is not None:
                observer(tracer, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"serelay.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and _traceable(value):
                    self._wrap_class(layer, value)
        for module in [importlib.import_module("serelay"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(module, attr, wrapped[value])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def end_op(self) -> None:
        """Fold the spans of the op that just ended into the totals."""
        spans, self.spans = self.spans, []
        if not self.ops:
            self.first_op_spans = spans
        main = threading.get_ident()
        self.ops += 1
        child_ns: Counter = Counter()
        children = defaultdict(list)
        for sid, parent, name, start, end, _tid in spans:
            child_ns[parent] += end - start
            children[parent].append((name, start, end))
        for sid, _parent, name, start, end, tid in spans:
            self.calls[name] += 1
            own = end - start - child_ns[sid]
            if name == WAIT_SPAN:
                if tid == main:
                    self.extra_ns["relay.transport_wait_us"] += own
                continue
            self.self_ns[name.split(".", 1)[0]] += own
            if name.startswith("relay.WireFrame."):
                self.extra_ns["relay.frame_codec_us"] += own
            elif name == "bench.histogram_to_csv":
                self.extra_ns["bench.csv_us"] += end - start
            elif name in SCENARIO_SPANS and tid == main:
                kids = children[sid]
                first = [s for n, s, _e in kids if n in FIRST_EXCHANGE_SPANS]
                closes = [e for n, _s, e in kids if n == "relay.CardEmulator.close"]
                self.extra_ns["scenarios.setup_us"] += min(first, default=end) - start
                if closes:
                    self.extra_ns["scenarios.join_wait_us"] += end - max(closes)
        for command, response in self.se_pairs:
            self.responses += 1
            self.non_9000 += response[1:] != (0x90, 0x00)
            seen = self._seen[command]
            self.repeats += response in seen
            seen.add(response)
        self.se_pairs = []
        self.delays_used += len(self.used_delays)
        self.modelled_ms += sum(self.used_delays)
        self.used_delays = []

    def end_pass(self) -> None:
        """Response repeats are counted within one pass of the op list."""
        self._seen = defaultdict(set)

    def dump_first_op(self, path: Path) -> None:
        """Write the spans of the first traced op, one JSON object a line."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "thread")
        path.write_text(
            "".join(json.dumps(dict(zip(keys, span))) + "\n" for span in self.first_op_spans)
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op per-layer metrics as name -> (value, unit)."""
        ops = max(self.ops, 1)
        calls = self.calls
        samples = calls["latency.LatencyModel.sample_at"]
        out = {f"{layer}.self_us": (self.self_ns[layer] / 1e3 / ops, "us") for layer in LAYERS}
        out.update(
            {
                "tlv.decode_calls": (calls["tlv.decode"] / ops, "count"),
                "tlv.nodes_built": (calls["tlv.TlvNode.__init__"] / ops, "count"),
                "secure_element.process_calls": (self.responses / ops, "count"),
                "secure_element.non_9000_frac": (self.non_9000 / max(self.responses, 1), "ratio"),
                "secure_element.repeat_response_frac": (
                    self.repeats / max(self.responses, 1),
                    "ratio",
                ),
                "latency.samples": (samples / ops, "count"),
                "latency.samples_used_frac": (self.delays_used / max(samples, 1), "ratio"),
                "latency.modelled_ms": (self.modelled_ms / ops, "ms"),
                "relay.frames": (
                    (calls["relay.InProcessTransport.send_frame"]
                     + calls["relay.SocketTransport.send_frame"]) / ops,
                    "count",
                ),
                "relay.error_frames": (calls["relay.error_frame"] / ops, "count"),
                "terminal.steps": (calls["terminal.TransactionStep.__init__"] / ops, "count"),
            }
        )
        out.update({name: (self.extra_ns[name] / 1e3 / ops, "us") for name in EXTRA_TIMES})
        return out
