"""Helpers of the benchmark that need no solver: percentiles, span self
time and the fingerprint comparison. They import nothing from chns, so the
tests in this directory run without the program."""

from __future__ import annotations

import math
import statistics

# a tail percentile is reported as counted only with this many samples beyond it
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples strictly beyond its rank."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


def tail_percentile(values, q: float = 0.9) -> tuple[float, bool]:
    """The q-quantile and whether at least MIN_BEYOND samples lie beyond it."""
    value, beyond = nearest_rank(values, q)
    return value, beyond >= MIN_BEYOND


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus that of its direct children.

    `spans` is a sequence of (start, end, parent) with parent an index into
    the same sequence or None. Spans of one thread nest, so the direct
    children cover disjoint parts of their parent's interval.
    """
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def fingerprint_mismatches(got: dict, ref: dict, rtol: float = 1e-6,
                           atol: float = 1e-14) -> list[str]:
    """Keys of `ref` whose value `got` misses or does not match to rtol.

    atol is a floor for values that are themselves at round-off level.
    """
    bad = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or not math.isfinite(have) \
                or abs(have - want) > rtol * max(abs(have), abs(want)) + atol:
            bad.append(key)
    return bad

