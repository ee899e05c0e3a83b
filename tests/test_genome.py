import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelflight import (
    BlockKind,
    BlockPlacement,
    BlockSet,
    DecodeConfig,
    Orientation,
    apply_observer_bug,
    crossover,
    decode,
    genome_from_line,
    genome_to_line,
    polynomial_mutate,
    random_genome,
)

from voxelflight.genome import MUTATION_ETA, MUTATION_RATE, shape_key

from helpers import MASKS, masked, reference_decode, reference_mutate, unread_facings_north

CFG_ORIG = DecodeConfig(block_set=BlockSet.ORIGINAL)
CFG_OBS = DecodeConfig(block_set=BlockSet.OBSERVER, emulate_observer_bug=False)
CFG_QUIRK = DecodeConfig(block_set=BlockSet.OBSERVER)


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
        with pytest.raises(ValueError, match="^expected length 81, got 80$"):
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
            # decode looks its placements up in a table built at import, so
            # two decodes of one genome share the same objects.
            assert all(type(p) is BlockPlacement for p in shape)
            assert all(a is b for a, b in zip(shape, decode(g, cfg), strict=True))

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


def one_block_shapes(cfg):
    """Every placement `cfg` decodes to, each as the one-block shape of a genome."""
    k = len(cfg.block_set.members)
    for cell in range(cfg.volume):
        for kind in range(k):
            for orient in range(6):
                g = np.zeros(cfg.genome_length)
                g[3 * cell : 3 * cell + 3] = (1.0, (kind + 0.5) / k, (orient + 0.5) / 6)
                yield decode(g, cfg)


class TestObserverQuirkAtDecode:
    """Under the observer quirk `decode` returns the placed shape: an Up or
    Down observer decodes facing North, as the very placement object the
    decoder without the quirk returns for a North-facing observer there."""

    def test_decodes_the_placed_shape_from_the_plain_table(self):
        plain_objects = {id(p) for shape in one_block_shapes(CFG_OBS) for p in shape}
        rng = np.random.default_rng(41)
        genomes = [random_genome(rng, CFG_QUIRK.genome_length) for _ in range(300)]
        triples = list(itertools.product(boundary_genes(), repeat=3))
        genomes += [genome_with_triples(triples[i : i + 27]) for i in range(0, len(triples), 27)]
        rewritten = 0
        for g in genomes:
            plain, placed = decode(g, CFG_OBS), decode(g, CFG_QUIRK)
            assert placed == apply_observer_bug(plain) == apply_observer_bug(placed)
            assert not any(p.kind is BlockKind.OBSERVER and p.orient in (Orientation.UP, Orientation.DOWN) for p in placed)
            assert all(id(p) in plain_objects for p in placed)
            rewritten += placed != plain
        assert rewritten > len(genomes) // 4  # guards against a vacuous pass

    def test_original_set_ignores_the_quirk(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            g = random_genome(rng, CFG_ORIG.genome_length)
            on, off = decode(g, CFG_ORIG), decode(g, DecodeConfig(BlockSet.ORIGINAL, emulate_observer_bug=False))
            assert all(a is b for a, b in zip(on, off, strict=True))


class TestShapeKey:
    """A shape is keyed as it is with every redstone, slime and quartz block
    facing North: no rule, descriptor or poll reads those facings."""

    def test_two_bytes_per_placement_and_one_key_per_placement(self):
        placements = {}
        for cfg in (CFG_ORIG, CFG_OBS):
            for shape in one_block_shapes(cfg):
                [placement] = unread_facings_north(shape)
                key = shape_key(shape)
                assert len(key) == 2
                # The same key only for an equal placement once its unread facing is North, under either block set.
                assert placements.setdefault(key, placement) == placement
        # One key per cell, kind and read facing: 27 cells * (3 kinds + 3 kinds * 6 facings).
        assert len(placements) == 567

    def test_keys_are_equal_iff_shapes_are(self):
        rng = np.random.default_rng(31)
        genomes = [random_genome(rng, CFG_OBS.genome_length) for _ in range(300)]
        # Nudged copies often decode to the same shape as their source.
        genomes += [np.clip(g + rng.uniform(-0.02, 0.02, g.shape), 0.0, 1.0) for g in genomes]
        decoded = [decode(g, CFG_OBS) for g in genomes]
        shapes = [tuple(unread_facings_north(shape)) for shape in decoded]
        keys = [shape_key(shape) for shape in decoded]
        assert all(len(key) == 2 * len(shape) for key, shape in zip(keys, shapes))
        distinct = len(set(shapes))
        assert 300 < distinct < len(shapes)  # both equal and unequal pairs occur
        assert distinct < len(set(map(tuple, decoded)))  # some unequal decoded shapes share a key
        assert len(set(keys)) == len(set(zip(keys, shapes))) == distinct


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
        with pytest.raises(ValueError, match=f"^length must be a positive multiple of 3, got {bad}$"):
            random_genome(np.random.default_rng(0), bad)


class TestPolynomialMutate:
    def test_no_mask_is_identity(self):
        rng = np.random.default_rng(7)
        g = random_genome(rng, 81)
        out = polynomial_mutate(g, masked(np.random.default_rng(8).random((2, len(g))), MASKS["none"]))
        assert (out == g).all()

    def test_bounds_respected_at_edges(self):
        rng = np.random.default_rng(9)
        for value in (0.0, 1.0):
            g = np.full(300, value)
            out = polynomial_mutate(g, masked(rng.random((2, len(g))), MASKS["every"]))
            assert ((out >= 0.0) & (out <= 1.0)).all()

    def test_untouched_genes_bit_identical(self):
        g = random_genome(np.random.default_rng(10), 81)
        out = polynomial_mutate(g, np.random.default_rng(11).random((2, len(g))))
        mask = np.random.default_rng(11).random(81) < MUTATION_RATE  # row 0 of the uniforms: the mask draw
        assert np.array_equal(out[~mask], g[~mask])
        assert (out[mask] != g[mask]).any()

    def test_monte_carlo_symmetry_around_half(self):
        # 1e5 mutations of 0.5 at the distribution index 20: mean stays near
        # 0.5 and the above/below split passes a two-sided sign test (|z| < 4).
        rng = np.random.default_rng(2024)
        g = np.full(100_000, 0.5)
        out = polynomial_mutate(g, masked(rng.random((2, len(g))), MASKS["every"]))
        moved = out[out != 0.5]
        assert abs(out.mean() - 0.5) < 0.005
        above = (moved > 0.5).sum()
        n = len(moved)
        z = (above - n / 2) / (0.5 * np.sqrt(n))
        assert abs(z) < 4.0


class TestPolynomialMutateMatchesReference:
    """The whole-genome operator equals the masked reference bit for bit,
    and computing every gene's branch raises no floating-point warning."""

    @pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
    @pytest.mark.parametrize("fill", [None, 0.0, 0.5, 1.0], ids=["random", "0.0", "0.5", "1.0"])
    def test_bit_identical(self, mask, fill):
        rng = np.random.default_rng(31)
        with np.errstate(all="raise"):
            for seed in range(200):
                g = random_genome(rng, 81) if fill is None else np.full(81, fill)
                uniforms = masked(np.random.default_rng(seed).random((2, len(g))), mask)
                out = polynomial_mutate(g, uniforms)
                assert np.array_equal(out, reference_mutate(g, uniforms, MUTATION_RATE, MUTATION_ETA))

    # The ends of the draw range [0, 1) for row 1: the lowest draw sends
    # every mutating gene to exactly 0, the highest moves every one below 1 up.
    @pytest.mark.parametrize("r", [0.0, np.nextafter(1.0, 0.0)], ids=["lowest", "highest"])
    @pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
    @pytest.mark.parametrize("fill", [None, 0.0, 0.5, 1.0], ids=["random", "0.0", "0.5", "1.0"])
    def test_bit_identical_at_draw_ends(self, r, mask, fill):
        rng = np.random.default_rng(41)
        with np.errstate(all="raise"):
            for seed in range(200):
                g = random_genome(rng, 81) if fill is None else np.full(81, fill)
                uniforms = masked(np.random.default_rng(seed).random((2, len(g))), mask)
                uniforms[1] = r
                out = polynomial_mutate(g, uniforms)
                assert np.array_equal(out, reference_mutate(g, uniforms, MUTATION_RATE, MUTATION_ETA))
                assert ((out >= 0.0) & (out <= 1.0)).all()
                moves = uniforms[0] < MUTATION_RATE
                if r == 0.0:
                    assert np.array_equal(out == 0.0, moves | (g == 0.0))
                else:
                    assert np.array_equal(out > g, moves & (g < 1.0))


# Mutates random batches of 1-24 rows under the three mask modes and checks
# every row against the one-genome call and the masked reference; prints the
# numpy CPU-dispatch state and the number of rows checked.
BATCH_CHECK = """
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from voxelflight import polynomial_mutate
from voxelflight.genome import MUTATION_ETA, MUTATION_RATE
from helpers import MASKS, masked, reference_mutate

rng = np.random.default_rng(19)
rows = 0
for k in range(1, 25):
    for mask in MASKS.values():
        genomes = rng.random((k, 81))
        uniforms = masked(rng.random((k, 2, 81)), mask)
        for g, u, row in zip(genomes, uniforms, polynomial_mutate(genomes, uniforms)):
            assert np.array_equal(row, polynomial_mutate(g, u))
            assert np.array_equal(row, reference_mutate(g, u, MUTATION_RATE, MUTATION_ETA))
            rows += 1
print(__cpu_features__.get("X86_V4", False), rows)
"""


class TestBatchedMutate:
    """The searches mutate each batch of children in one call; every row of
    a batch must equal the one-genome call on it, bit for bit."""

    @pytest.mark.parametrize("k", [1, 5, 10, 20])
    @pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
    @pytest.mark.parametrize("fill", [None, 0.0, 0.5, 1.0], ids=["random", "0.0", "0.5", "1.0"])
    def test_rows_equal_single_calls(self, k, mask, fill):
        rng = np.random.default_rng(37)
        with np.errstate(all="raise"):
            for _ in range(20):
                genomes = rng.random((k, 81)) if fill is None else np.full((k, 81), fill)
                uniforms = masked(rng.random((k, 2, 81)), mask)
                out = polynomial_mutate(genomes, uniforms)
                assert out.shape == genomes.shape
                for g, u, row in zip(genomes, uniforms, out):
                    assert np.array_equal(row, polynomial_mutate(g, u))
                    assert np.array_equal(row, reference_mutate(g, u, MUTATION_RATE, MUTATION_ETA))

    def test_two_row_draw_is_two_draws(self):
        # The searches draw a child's uniforms as one (2, n) array where the
        # operator used to draw two n-vectors: the stream must not change.
        one, two = np.random.default_rng(3), np.random.default_rng(3)
        both = one.random((2, 81))
        assert np.array_equal(both[0], two.random(81))
        assert np.array_equal(both[1], two.random(81))
        assert one.bit_generator.state == two.bit_generator.state

    @pytest.mark.parametrize("genomes, uniforms", [
        ((81,), (2, 80)),
        ((81,), (81,)),
        ((81,), (1, 2, 81)),  # one genome's draws must not pass as a batch's
        ((5, 81), (2, 81)),  # nor be broadcast over a batch
        ((5, 81), (4, 2, 81)),
        ((5, 81), (5, 81)),
    ])
    def test_mismatched_uniforms_raise(self, genomes, uniforms):
        message = f"uniforms of shape {uniforms} do not fit genomes of shape {genomes}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            polynomial_mutate(np.zeros(genomes), np.zeros(uniforms))

    def test_rows_equal_single_calls_without_avx512(self):
        # Float64 `**` dispatches to AVX-512 code where the CPU has it (see
        # README); the batch identity must also hold on the code numpy uses
        # without it, which a fresh interpreter selects from the environment.
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        env["PYTHONPATH"] = os.pathsep.join([src, tests])
        done = subprocess.run([sys.executable, "-c", BATCH_CHECK], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", str(3 * sum(range(1, 25)))]


class TestCrossover:
    def test_identical_parents_identical_child(self):
        g = random_genome(np.random.default_rng(1), 81)
        child = crossover(g, g.copy(), np.random.default_rng(2))
        assert (child == g).all()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^parent lengths differ: 81 vs 84$"):
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
