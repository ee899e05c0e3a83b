"""Exact statistics for campaign reporting."""

from __future__ import annotations

from math import comb


def fisher_exact_2x2(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p-value for the 2x2 table [[a, b], [c, d]].

    Sums hypergeometric probabilities of all tables with the observed margins
    that are at most as probable as the observed table. Computed with exact
    integer combinatorics; only the final division is floating point.
    Bonferroni adjustment is a reporting-layer concern, not applied here.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("table entries must be non-negative")
    if a + b + c + d == 0:
        raise ValueError("empty 2x2 table")
    row1, row2 = a + b, c + d
    col1 = a + c
    n = row1 + row2
    # Weight of the table with k in the top-left cell, up to the common 1/C(n, col1).
    lo = max(0, col1 - row2)
    hi = min(row1, col1)
    observed = comb(row1, a) * comb(row2, col1 - a)
    total = comb(n, col1)
    tail = 0
    for k in range(lo, hi + 1):
        w = comb(row1, k) * comb(row2, col1 - k)
        if w <= observed:
            tail += w
    return tail / total


def bonferroni(p: float, comparisons: int) -> float:
    """Bonferroni-adjusted p-value, capped at 1."""
    return min(1.0, p * comparisons)
