"""Round-trip delay benchmark harness with histogram binning and CSV export.

Checks once that each chosen access path answers a SELECT of the card
manager, on one secure element shared by every path, then draws the paths'
modelled round-trip delays and bins them. The draw is one
:func:`~serelay.latency.sample_columns` call: each index is hashed once, every
path's column comes from those draws, and each spec bins its own copy of its
path's column.
The default layout is 160 bins of 50 ms where the last bin collects
everything at or above 7950 ms, ``inf`` included; zoomed layouts are a matter
of passing a different width/count. The CSV row labels of a layout are
formatted once and reused by every later export with the same layout.

The binned value per repetition is the sampled path delay alone, so seeded
runs are bit-identical across repeats; the host's own compute time never
enters the modelled milliseconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from .latency import DEFAULT_PARAMS, AccessPath, LatencyParams, sample_columns
from .secure_element import ChannelOrigin, ISD_PREFIX_AID, SecureElement, select_command


class BenchmarkError(Exception):
    """The benchmark path did not deliver usable responses."""


def _check_layout(bin_width_ms: float, bin_count: int) -> None:
    if not 0 < bin_width_ms < math.inf:
        raise ValueError("bin_width_ms must be positive and finite")
    if bin_count < 2:
        raise ValueError("bin_count must be at least 2")


@dataclass
class Histogram:
    """Fixed-width histogram whose final bin absorbs the overflow."""

    bin_width_ms: float = 50.0
    bin_count: int = 160
    counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        _check_layout(self.bin_width_ms, self.bin_count)
        if not self.counts:
            self.counts = [0] * self.bin_count
        if len(self.counts) != self.bin_count:
            raise ValueError("counts length must equal bin_count")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def overflow_threshold_ms(self) -> float:
        return self.bin_width_ms * (self.bin_count - 1)

    def add(self, delay_ms: float) -> None:
        """Count one delay in bin ``delay_ms // bin_width_ms``.

        Every delay at or above :attr:`overflow_threshold_ms` lands in the last
        bin, including ``inf`` and delays whose quotient overflows to ``inf``.
        A NaN or negative delay raises ``ValueError``.
        """
        if not delay_ms >= 0.0:
            raise ValueError(f"delay must be a number >= 0, got {delay_ms!r}")
        try:
            index = int(delay_ms // self.bin_width_ms)
        except (OverflowError, ValueError):
            # the quotient is inf (a tiny width or a huge delay) or NaN (an inf delay)
            index = self.bin_count
        if index >= self.bin_count - 1:
            index = self.bin_count - 1
        self.counts[index] += 1


def _fmt(value: float) -> str:
    """``:g`` where it reads back as ``value``, else the exact ``repr``."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


@lru_cache(maxsize=16)
def _csv_labels(bin_width_ms: float, bin_count: int) -> tuple[str, ...]:
    """Each row's ``start,end,`` prefix, the last one ending ``overflow,``."""
    labels = []
    for i in range(bin_count):
        start = i * bin_width_ms
        end = "overflow" if i == bin_count - 1 else _fmt(start + bin_width_ms)
        labels.append(f"{_fmt(start)},{end},")
    return tuple(labels)


def histogram_to_csv(hist: Histogram) -> str:
    """CSV rendering: one row per bin, the last row labelled as overflow."""
    labels = _csv_labels(hist.bin_width_ms, hist.bin_count)
    rows = "".join([f"{label}{count}\n" for label, count in zip(labels, hist.counts)])
    return "bin_start_ms,bin_end_ms,count\n" + rows


def _close(a: float, b: float) -> bool:
    # relative as well as absolute: an edge far from zero loses low bits when
    # a row's width is taken as end - start
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def histogram_from_csv(text: str) -> Histogram:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "bin_start_ms,bin_end_ms,count":
        raise ValueError("missing histogram CSV header")
    rows = lines[1:]
    if len(rows) < 2:
        raise ValueError("histogram CSV needs at least two bins")
    counts: list[int] = []
    width: Optional[float] = None
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != 3:
            raise ValueError(f"row {i} has {len(cells)} fields, expected 3")
        start_s, end_s, count_s = cells
        last = i == len(rows) - 1
        try:
            start = float(start_s)
            end = None if last else float(end_s)
            count = int(count_s)
        except ValueError:
            raise ValueError(f"row {i} has a field that is not a number: {row!r}") from None
        if count < 0:
            raise ValueError(f"row {i} has a negative count {count}")
        counts.append(count)
        if end is not None:
            row_width = end - start
            if width is None:
                width = row_width
            elif not _close(row_width, width):
                raise ValueError(f"inconsistent bin width in row {i}")
        elif end_s != "overflow":
            raise ValueError("final row must be the overflow bin")
        if width is not None and not _close(start, i * width):
            raise ValueError(f"row {i} does not start on a bin boundary")
    assert width is not None
    return Histogram(bin_width_ms=width, bin_count=len(rows), counts=counts)


def render_ascii(hist: Histogram, max_width: int = 60) -> str:
    """Bar chart of the occupied bins, for eyeballing a run."""
    peak = max(hist.counts) if hist.total else 0
    lines = [f"total={hist.total} bins={hist.bin_count} width={hist.bin_width_ms:g}ms"]
    for i, count in enumerate(hist.counts):
        if count == 0:
            continue
        start = i * hist.bin_width_ms
        label = (
            f">={hist.overflow_threshold_ms:g}"
            if i == hist.bin_count - 1
            else f"{start:g}-{start + hist.bin_width_ms:g}"
        )
        bar = "#" * max(1, round(count / peak * max_width))
        lines.append(f"{label:>14} ms |{bar} {count}")
    return "\n".join(lines)


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark run: path, repetitions, seed, layout and delay params."""

    path: AccessPath = AccessPath.DIRECT_EXTERNAL
    repetitions: int = 5000
    seed: int = 0
    bin_width_ms: float = 50.0
    bin_count: int = 160
    params: Optional[LatencyParams] = None

    def __post_init__(self) -> None:
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        _check_layout(self.bin_width_ms, self.bin_count)


def run_benchmark(spec: BenchmarkSpec, se: Optional[SecureElement] = None) -> Histogram:
    """Bin ``spec.repetitions`` modelled round-trip delays of ``spec.path``."""
    return sample_benchmark([spec], se)[0][0]


def sample_benchmark(
    specs: Sequence[BenchmarkSpec], se: Optional[SecureElement] = None
) -> list[tuple[Histogram, list[float]]]:
    """Like :func:`run_benchmark` per spec, also returning the delays in order.

    Each spec's path first gets one availability exchange on ``se`` (default:
    one fresh SE): open its channel, SELECT the card manager, close. That
    exchange leaves nothing behind, so one SE serves every spec. A failure
    raises :class:`BenchmarkError` before any delay is drawn.

    The specs must share seed, repetitions and params. The result holds one
    ``(histogram, delays)`` pair per spec, each equal to what the spec gives
    alone; specs on one path get equal but separate lists. Every path's
    column comes from one :func:`sample_columns` call, which hashes each
    repetition's index once.
    """
    if len({(s.seed, s.repetitions, s.params) for s in specs}) != 1:
        raise ValueError("specs must share seed, repetitions and params")
    if se is None:
        se = SecureElement()
    first = specs[0]
    params = first.params if first.params is not None else DEFAULT_PARAMS
    for s in specs:
        origin = (
            ChannelOrigin.CONTACTLESS
            if s.path is AccessPath.DIRECT_EXTERNAL
            else ChannelOrigin.INTERNAL
        )
        se.open_session(origin)
        try:
            resp = se.process(origin, select_command(ISD_PREFIX_AID))
        finally:
            se.close_session(origin)
        if not resp.is_success:
            raise BenchmarkError(
                f"path {s.path.value} unavailable: workload answered {resp.sw:04X}"
            )
    paths = [s.path for s in specs]
    columns = sample_columns(paths, first.seed, range(first.repetitions), params)
    results = []
    for s in specs:
        hist = Histogram(bin_width_ms=s.bin_width_ms, bin_count=s.bin_count)
        add = hist.add
        modelled = columns[s.path].copy()  # the caller may sort each spec's list
        for delay in modelled:
            add(delay)
        results.append((hist, modelled))
    return results
