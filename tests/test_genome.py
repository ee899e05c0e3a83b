import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelflight import (
    BlockKind,
    BlockPlacement,
    BlockSet,
    DecodeConfig,
    LengthError,
    LengthMismatchError,
    Orientation,
    crossover,
    decode,
    genome_from_line,
    genome_to_line,
    polynomial_mutate,
    random_genome,
)

from helpers import reference_decode, reference_mutate

CFG_ORIG = DecodeConfig(block_set=BlockSet.ORIGINAL)
CFG_OBS = DecodeConfig(block_set=BlockSet.OBSERVER)


def genome_with_triples(triples, length=81):
    g = np.zeros(length)
    for i, t in enumerate(triples):
        g[3 * i : 3 * i + 3] = t
    return g


class TestDecode:
    def test_presence_at_04_is_absent(self):
        g = genome_with_triples([(0.4, 0.9, 0.9)])
        assert decode(g, CFG_ORIG) == []

    def test_presence_exactly_half_is_absent(self):
        g = genome_with_triples([(0.5, 0.0, 0.0)])
        assert decode(g, CFG_ORIG) == []

    def test_all_zero_genome_is_empty(self):
        assert decode(np.zeros(81), CFG_ORIG) == []

    def test_index_zero_triple(self):
        g = genome_with_triples([(0.9, 0.0, 0.0)])
        [p] = decode(g, CFG_ORIG)
        assert p.kind is BlockKind.REDSTONE_BLOCK
        assert p.orient is Orientation.NORTH
        assert p.pos == (0, 0, 0)

    def test_cell_order_x_major(self):
        # gene triple i maps to (x, y, z) with x slowest, z fastest
        assert CFG_ORIG.cell_for_index(0) == (0, 0, 0)
        assert CFG_ORIG.cell_for_index(1) == (0, 0, 1)
        assert CFG_ORIG.cell_for_index(3) == (0, 1, 0)
        assert CFG_ORIG.cell_for_index(9) == (1, 0, 0)
        assert CFG_ORIG.cell_for_index(26) == (2, 2, 2)

    def test_type_intervals_partition_both_sets(self):
        for cfg in (CFG_ORIG, CFG_OBS):
            members = cfg.block_set.members
            k = len(members)
            for t in np.linspace(0.0, 1.0, 1001):
                g = genome_with_triples([(1.0, t, 0.0)])
                [p] = decode(g, cfg)
                assert p.kind is members[min(int(t * k), k - 1)]

    def test_boundary_maps_to_upper_interval(self):
        members = CFG_ORIG.block_set.members
        for k in range(len(members)):
            g = genome_with_triples([(1.0, k / len(members), 0.0)])
            [p] = decode(g, CFG_ORIG)
            assert p.kind is members[k]

    def test_orientation_intervals(self):
        for j, expected in enumerate(Orientation):
            g = genome_with_triples([(1.0, 0.0, (j + 0.5) / 6)])
            [p] = decode(g, CFG_ORIG)
            assert p.orient.name == expected.name

    def test_one_clamps(self):
        g = genome_with_triples([(1.0, 1.0, 1.0)])
        [p] = decode(g, CFG_OBS)
        assert p.kind is BlockKind.OBSERVER
        assert p.orient is Orientation.DOWN

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            decode(np.zeros(80), CFG_ORIG)

    def test_decode_is_pure(self):
        rng = np.random.default_rng(5)
        g = random_genome(rng, 81)
        assert decode(g, CFG_OBS) == decode(g, CFG_OBS)


def boundary_genes() -> list[float]:
    """0, 1, the presence threshold and the float above it, every split point
    of the k-way kind and 6-way orientation intervals, and the float just below
    each of these."""
    points = {0.0, 0.5, float(np.nextafter(0.5, 1.0)), 1.0}
    for k in {len(CFG_ORIG.block_set.members), len(CFG_OBS.block_set.members), 6}:
        points.update(j / k for j in range(1, k))
    points.update(float(np.nextafter(p, 0.0)) for p in list(points) if p > 0.0)
    return sorted(points)


@pytest.mark.parametrize("cfg", [CFG_ORIG, CFG_OBS], ids=["original", "observer"])
class TestDecodeMatchesReference:
    def test_random_genomes(self, cfg):
        rng = np.random.default_rng(23)
        for _ in range(300):
            g = random_genome(rng, cfg.genome_length)
            shape = decode(g, cfg)
            assert shape == reference_decode(g, cfg)
            # decode builds placements with tuple.__new__, which bypasses the constructor.
            assert all(type(p) is BlockPlacement for p in shape)

    def test_boundary_genes(self, cfg):
        triples = list(itertools.product(boundary_genes(), repeat=3))
        kinds, orients = set(), set()
        for start in range(0, len(triples), cfg.volume):
            g = genome_with_triples(triples[start : start + cfg.volume])
            expected = reference_decode(g, cfg)
            assert decode(g, cfg) == expected
            kinds.update(p.kind for p in expected)
            orients.update(p.orient for p in expected)
        # The genes reach every interval, so each split point is crossed.
        assert kinds == set(cfg.block_set.members)
        assert orients == set(Orientation)


class TestRandomGenome:
    def test_length_and_bounds(self):
        g = random_genome(np.random.default_rng(0), 81)
        assert len(g) == 81
        assert ((g >= 0) & (g <= 1)).all()

    def test_same_seed_same_genome(self):
        a = random_genome(np.random.default_rng(42), 81)
        b = random_genome(np.random.default_rng(42), 81)
        assert (a == b).all()

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(123)
        samples = rng.random((100_000, 3))
        means = samples.mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.01)

    @pytest.mark.parametrize("bad", [0, -3, 80])
    def test_bad_length(self, bad):
        with pytest.raises(LengthError):
            random_genome(np.random.default_rng(0), bad)


class TestPolynomialMutate:
    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(7)
        g = random_genome(rng, 81)
        out = polynomial_mutate(g, np.random.default_rng(8), per_gene_rate=0.0)
        assert (out == g).all()

    def test_bounds_respected_at_edges(self):
        rng = np.random.default_rng(9)
        for value in (0.0, 1.0):
            g = np.full(300, value)
            out = polynomial_mutate(g, rng, per_gene_rate=1.0)
            assert ((out >= 0.0) & (out <= 1.0)).all()

    def test_untouched_genes_bit_identical(self):
        g = random_genome(np.random.default_rng(10), 81)
        out = polynomial_mutate(g, np.random.default_rng(11), per_gene_rate=0.3)
        mask = np.random.default_rng(11).random(81) < 0.3  # the operator's first draw
        assert np.array_equal(out[~mask], g[~mask])
        assert (out[mask] != g[mask]).any()

    def test_monte_carlo_symmetry_around_half(self):
        # 1e5 mutations of 0.5 with eta=20: mean stays near 0.5 and the
        # above/below split passes a two-sided sign test (|z| < 4).
        rng = np.random.default_rng(2024)
        g = np.full(100_000, 0.5)
        out = polynomial_mutate(g, rng, per_gene_rate=1.0, eta=20.0)
        moved = out[out != 0.5]
        assert abs(out.mean() - 0.5) < 0.005
        above = (moved > 0.5).sum()
        n = len(moved)
        z = (above - n / 2) / (0.5 * np.sqrt(n))
        assert abs(z) < 4.0


class TestPolynomialMutateMatchesReference:
    """The whole-genome operator equals the masked reference bit for bit,
    and computing every gene's branch raises no floating-point warning."""

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("eta", [20.0, 5.0])
    @pytest.mark.parametrize("fill", [None, 0.0, 0.5, 1.0], ids=["random", "0.0", "0.5", "1.0"])
    def test_bit_identical(self, rate, eta, fill):
        rng = np.random.default_rng(31)
        with np.errstate(all="raise"):
            for seed in range(200):
                g = random_genome(rng, 81) if fill is None else np.full(81, fill)
                out = polynomial_mutate(g, np.random.default_rng(seed), rate, eta)
                assert np.array_equal(out, reference_mutate(g, np.random.default_rng(seed), rate, eta))


class TestCrossover:
    def test_identical_parents_identical_child(self):
        g = random_genome(np.random.default_rng(1), 81)
        child = crossover(g, g.copy(), np.random.default_rng(2))
        assert (child == g).all()

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            crossover(np.zeros(81), np.zeros(84), np.random.default_rng(0))

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_child_genes_come_from_a_parent_at_same_index(self, seed):
        rng = np.random.default_rng(seed)
        a = random_genome(rng, 81)
        b = random_genome(rng, 81)
        child = crossover(a, b, rng)
        assert np.all((child == a) | (child == b))

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_cut_respects_triples(self, seed):
        rng = np.random.default_rng(seed)
        a = np.zeros(81)
        b = np.ones(81)
        child = crossover(a, b, rng)
        for i in range(27):
            triple = child[3 * i : 3 * i + 3]
            assert (triple == 0).all() or (triple == 1).all()

    def test_all_cut_points_reachable(self):
        a = np.zeros(9)
        b = np.ones(9)
        seen = set()
        rng = np.random.default_rng(3)
        for _ in range(300):
            child = crossover(a, b, rng)
            seen.add(int(child.sum()))
        assert seen == {0, 3, 6, 9}  # cut at 0 gives b entirely, at len gives a


class TestSerialization:
    def test_round_trip_exact(self):
        g = random_genome(np.random.default_rng(99), 81)
        assert (genome_from_line(genome_to_line(g)) == g).all()

    def test_line_shape(self):
        g = np.array([0.5, 0.25, 1.0])
        line = genome_to_line(g)
        assert line == "0.5 0.25 1"

    def test_bounds_are_accepted(self):
        assert genome_from_line("0 1 0.5").tolist() == [0.0, 1.0, 0.5]

    @pytest.mark.parametrize("value, named", [
        ("-0.4", "-0.4"), ("1.5", "1.5"), ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
    ])
    def test_values_outside_unit_interval_are_rejected(self, value, named):
        # A negative type gene would index the block set from its end in `decode`.
        with pytest.raises(ValueError, match=re.escape(f"genome value {named} is not in [0, 1]")):
            genome_from_line(f"0.9 {value} 0.25")
