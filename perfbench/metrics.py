"""Metric arithmetic of the benchmark, kept free of I/O so it can be tested."""
from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

SINGLE_PHASE_SUFFIX = "_single_phase"


def gap_db(rows: Iterable[dict], parameter: str) -> float:
    """Mean of 10*log10(mse/crb) over two-phase rows of one family.

    Rows of the single-phase estimator and rows whose mse or crb is not a
    finite positive number are skipped; NaN when no row is left.
    """
    gaps = [10.0 * math.log10(row["mse"] / row["crb"]) for row in rows
            if row["parameter"] == parameter
            and not row["sweep_name"].endswith(SINGLE_PHASE_SUFFIX)
            and math.isfinite(row["mse"]) and math.isfinite(row["crb"])
            and row["mse"] > 0 and row["crb"] > 0]
    return statistics.fmean(gaps) if gaps else math.nan


def failed_share(repeats: Iterable[tuple[int, int, bool]]) -> float:
    """Share of failed trials over ``(attempted, rejected, completed)`` repeats.

    A repeat that did not complete (it raised, or its output failed a
    check) counts every trial it attempted as failed.
    """
    attempted = failed = 0
    for n, rejected, completed in repeats:
        attempted += n
        failed += rejected if completed else n
    if attempted < 1:
        raise ValueError("no trials attempted")
    return failed / attempted


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each ``(start, end, parent)`` span.

    A span's self time is its duration minus the part of its interval
    that its children cover; children that overlap each other or run past
    the parent are counted once and clipped, so the result is never
    negative.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
