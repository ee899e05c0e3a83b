"""Fisher exact test against an independent exact-rational enumeration oracle."""

from fractions import Fraction
from math import comb

import pytest

from voxelflight import bonferroni, fisher_exact_2x2


def fisher_oracle(a, b, c, d):
    """Exact-rational two-sided Fisher p: enumerate the full hypergeometric
    support with Fraction arithmetic and sum tables no more probable than the
    observed one."""
    row1, row2, col1 = a + b, c + d, a + c
    n = row1 + row2
    denom = comb(n, col1)
    prob = {}
    for k in range(max(0, col1 - row2), min(row1, col1) + 1):
        prob[k] = Fraction(comb(row1, k) * comb(row2, col1 - k), denom)
    observed = prob[a]
    return float(sum(p for p in prob.values() if p <= observed))


class TestFisher:
    def test_balanced_table(self):
        assert fisher_exact_2x2(1, 1, 1, 1) == 1.0

    def test_perfect_split(self):
        expected = 2 / comb(20, 10)
        assert fisher_exact_2x2(10, 0, 0, 10) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.082e-5, rel=1e-3)

    @pytest.mark.parametrize("table", [
        (28, 2, 14, 16),
        (28, 2, 17, 13),
        (28, 2, 16, 14),
        (21, 9, 9, 21),
        (21, 9, 3, 27),
        (21, 9, 7, 23),
        (5, 0, 0, 5),
        (0, 10, 10, 0),
        (3, 7, 2, 8),
        (1, 0, 0, 0),
        (12, 12, 12, 12),
    ])
    def test_matches_enumeration_oracle(self, table):
        assert fisher_exact_2x2(*table) == pytest.approx(fisher_oracle(*table), abs=1e-12)

    def test_symmetry_under_row_and_column_swap(self):
        assert fisher_exact_2x2(28, 2, 14, 16) == fisher_exact_2x2(16, 14, 2, 28)

    def test_degenerate_table(self):
        with pytest.raises(ValueError, match="^empty 2x2 table$"):
            fisher_exact_2x2(0, 0, 0, 0)

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            fisher_exact_2x2(-1, 1, 1, 1)

    def test_in_unit_interval(self):
        for a in range(0, 8, 3):
            for c in range(0, 8, 3):
                if a + c == 0:
                    continue
                p = fisher_exact_2x2(a, 7 - a, c, 7 - c)
                assert 0.0 <= p <= 1.0


class TestBonferroni:
    def test_scales_and_caps(self):
        assert bonferroni(0.01, 3) == pytest.approx(0.03)
        assert bonferroni(0.5, 3) == 1.0
