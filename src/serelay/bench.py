"""Round-trip delay benchmark: histogram binning and CSV export.

One :func:`sample_benchmark` call is one run, a pure function of the delay
model: its paths share one seed, repetition count, set of delay params and
bin layout, and their delays come from one
:func:`~serelay.latency.sample_columns` call: each index is hashed once, every
path's column comes from those draws, and each path bins its own copy.
The default layout is 160 bins of 50 ms where the last bin collects
everything at or above 7950 ms, ``inf`` included; zoomed layouts are a matter
of passing a different width/count. A layout's CSV row labels are formatted
once; every export writes them, and the reader accepts no others.

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


# columns of the longest bar in render_ascii
BAR_WIDTH = 60


@dataclass
class Histogram:
    """Fixed-width histogram whose final bin absorbs the overflow."""

    bin_width_ms: float = 50.0
    bin_count: int = 160
    counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.bin_width_ms < math.inf:
            raise ValueError("bin_width_ms must be positive and finite")
        if self.bin_count < 2:
            raise ValueError("bin_count must be at least 2")
        if not self.counts:
            self.counts = [0] * self.bin_count
        if len(self.counts) != self.bin_count:
            raise ValueError("counts length must equal bin_count")
        if min(self.counts) < 0:
            raise ValueError(f"counts must be >= 0, got {min(self.counts)}")

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


def histogram_from_csv(text: str) -> Histogram:
    """The histogram whose :func:`histogram_to_csv` text is ``text``, exactly.

    The first row's end gives the bin width; every row must begin with the
    label :func:`_csv_labels` writes for that layout, so ``0.0,50.0`` for
    ``0,50`` is refused and names its row.
    """
    header, *rows = [line for line in text.splitlines() if line.strip()] or [""]
    if header != "bin_start_ms,bin_end_ms,count":
        raise ValueError("missing histogram CSV header")
    ends: list[float] = []
    counts: list[int] = []
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != 3:
            raise ValueError(f"row {i} has {len(cells)} fields, expected 3")
        start, end, count = cells
        try:
            float(start)
            if end != "overflow":
                ends.append(float(end))
            counts.append(int(count))
        except ValueError:
            raise ValueError(f"row {i} has a field that is not a number: {row!r}") from None
        if counts[-1] < 0:
            raise ValueError(f"row {i} has a negative count {counts[-1]}")
    # with no numeric end the default width stands; the bin count or a label fails
    hist = Histogram(*ends[:1], bin_count=len(counts), counts=counts)
    for i, (row, label) in enumerate(zip(rows, _csv_labels(hist.bin_width_ms, hist.bin_count))):
        if not row.startswith(label):
            raise ValueError(f"row {i} is not labelled {label[:-1]!r}: {row!r}")
    return hist


def render_ascii(hist: Histogram) -> str:
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
        bar = "#" * max(1, round(count / peak * BAR_WIDTH))
        lines.append(f"{label:>14} ms |{bar} {count}")
    return "\n".join(lines)


def sample_benchmark(
    paths: Sequence[AccessPath],
    repetitions: int,
    seed: int = 0,
    params: Optional[LatencyParams] = None,
    bin_width_ms: float = 50.0,
    bin_count: int = 160,
) -> list[tuple[Histogram, list[float]]]:
    """Bin ``repetitions`` modelled round-trip delays of each of ``paths``.

    The histograms are built first, so a bad layout raises before any delay
    is drawn. The result holds one ``(histogram, delays)`` pair per path, in
    order, each equal to what the path gives alone; a path given twice gets
    equal but separate lists. Every path's column comes from one
    :func:`sample_columns` call, which hashes each repetition's index once.
    """
    hists = [Histogram(bin_width_ms, bin_count) for _ in paths]
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    if params is None:
        params = DEFAULT_PARAMS
    columns = sample_columns(paths, seed, range(repetitions), params)
    results = []
    for path, hist in zip(paths, hists):
        add = hist.add
        modelled = columns[path].copy()  # the caller may sort each path's list
        for delay in modelled:
            add(delay)
        results.append((hist, modelled))
    return results
