"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 8's fallback branch is expected to fail its fitness-dominance
clause under this simulator's physics; see the analysis notes shipped with
the review materials. The assertion is kept faithful rather than loosened.
"""

import os
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from voxelflight import (
    ArchiveLayout,
    BlockKind,
    BlockPlacement,
    BlockSet,
    Box,
    Characterization,
    DecodeConfig,
    FitnessConfig,
    Orientation,
    SearchBudget,
    TickConfig,
    WorldState,
    count_blocks,
    decode,
    evaluate,
    evaluate_shape,
    fisher_exact_2x2,
    map_elites_run,
    mu_plus_lambda_run,
    negative_space,
    oscillation_fitness,
    place_shape,
    step,
)
from voxelflight.campaign import save_archive, ExperimentConfig, Method
from voxelflight.search import Archive

from helpers import absolute_times, record_accepted_inserts

DEC_OBS = DecodeConfig(block_set=BlockSet.OBSERVER)
TICK = TickConfig()
FIT = FitnessConfig()
PO = ArchiveLayout(Characterization.PISTON_ORIENTATION)


def report(criterion: int, label: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion} [{status}]: {label}")
    assert passed, f"criterion {criterion} failed: {label}"


class TestCriterion1Fitness:
    def test_criterion_1_fitness_closed_forms(self, reference_flyer):
        trajectory = [(float(t), 0.0, 0.0) for t in range(11)]
        unit_walk_ok = abs(oscillation_fitness(trajectory) - 10.0) <= 1e-9

        result = evaluate_shape(reference_flyer, TICK, FIT)
        leftover = result.leftover_count
        fly_ok = (
            result.flew
            and result.fitness == FIT.fly_reward - FIT.leftover_penalty * leftover
            and result.fitness == 55.0 - 0.1 * leftover
        )
        report(1, "COM moving 1.0/s for 10s scores 10.0 +- 1e-9; flying fixture scores exactly 55 - 0.1L", unit_walk_ok and fly_ok)


class TestCriterion2Fisher:
    def test_criterion_2_fisher_reproduction(self):
        """The raw two-sided p must match an exact enumeration oracle to
        1e-12, and must be consistent with the published ~0.00087 once the
        publication's Bonferroni factor is applied. That factor is 6
        (C(4,2) pairwise method comparisons): raw*6 lands within 0.2% of
        0.00087, and the same factor reproduces all six published p-values;
        raw alone (0.000145) and raw*3 (0.000434) do not reconcile.
        """
        raw = fisher_exact_2x2(28, 2, 14, 16)

        row1, row2, col1 = 30, 30, 42
        n = 60
        denom = comb(n, col1)
        probs = {
            k: Fraction(comb(row1, k) * comb(row2, col1 - k), denom)
            for k in range(max(0, col1 - row2), min(row1, col1) + 1)
        }
        oracle = float(sum(p for p in probs.values() if p <= probs[28]))
        oracle_ok = abs(raw - oracle) <= 1e-12

        bonferroni_factor = 6  # all pairwise comparisons among the 4 methods
        consistency_ok = abs(raw * bonferroni_factor - 0.00087) / 0.00087 <= 0.10
        report(2, f"fisher(28,2,14,16) raw={raw:.6g} matches oracle to 1e-12 and raw*6 is within 10% of 0.00087", oracle_ok and consistency_ok)


class TestCriterion3NegativeSpace:
    def test_criterion_3_negative_space_oracle(self):
        def oracle(shape):
            occupied = {p.pos for p in shape}
            los = [min(p[i] for p in occupied) for i in range(3)]
            his = [max(p[i] for p in occupied) for i in range(3)]
            return sum(
                1
                for x in range(los[0], his[0] + 1)
                for y in range(los[1], his[1] + 1)
                for z in range(los[2], his[2] + 1)
                if (x, y, z) not in occupied
            )

        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        rng = np.random.default_rng(42)
        random_ok = True
        for _ in range(1000):
            size = int(rng.integers(1, 28))
            picks = rng.choice(27, size=size, replace=False)
            shape = [BlockPlacement(cells[i], BlockKind.QUARTZ_BLOCK, Orientation.NORTH) for i in picks]
            if negative_space(shape) != oracle(shape):
                random_ok = False
                break

        cube8 = [BlockPlacement((x, y, z), BlockKind.QUARTZ_BLOCK, Orientation.NORTH) for x in range(2) for y in range(2) for z in range(2)]
        corners2 = [BlockPlacement(p, BlockKind.QUARTZ_BLOCK, Orientation.NORTH) for p in ((0, 0, 0), (1, 1, 1))]
        cells26 = [BlockPlacement(c, BlockKind.QUARTZ_BLOCK, Orientation.NORTH) for c in cells if c != (1, 1, 1)]
        worked_ok = negative_space(cube8) == 0 and negative_space(corners2) == 6 and negative_space(cells26) == 1
        report(3, "negative space matches brute-force oracle on 1000 seeded shapes and the three worked values", random_ok and worked_ok)


class TestCriterion4Decoder:
    def test_criterion_4_decoder_partition(self):
        grid = np.linspace(0.0, 1.0, 10_000)
        all_ok = True
        for block_set in (BlockSet.ORIGINAL, BlockSet.OBSERVER):
            cfg = DecodeConfig(block_set=block_set)
            members = block_set.members
            k = len(members)
            for t in grid:
                genome = np.zeros(cfg.genome_length)
                genome[0:3] = (1.0, t, 0.0)
                decoded = decode(genome, cfg)
                if len(decoded) != 1 or decoded[0].kind is not members[min(int(t * k), k - 1)]:
                    all_ok = False
                    break
            for boundary_index in range(k):
                genome = np.zeros(cfg.genome_length)
                genome[0:3] = (1.0, boundary_index / k, 0.0)
                if decode(genome, cfg)[0].kind is not members[boundary_index]:
                    all_ok = False

        half = np.zeros(81)
        half[0:3] = (0.5, 0.9, 0.9)
        absent_ok = decode(half, DEC_OBS) == []
        report(4, "type intervals partition [0,1] for both block sets, floor-rule boundaries hold, presence 0.5 is absent", all_ok and absent_ok)


class TestCriterion5SimulatorFixtures:
    def test_criterion_5_fixtures(self, reference_flyer):
        checks = []

        # extension: powered piston pushes the quartz one cell after its delay
        w = place_shape(WorldState(), [
            BlockPlacement((0, 0, 0), BlockKind.REDSTONE_BLOCK, Orientation.NORTH),
            BlockPlacement((1, 0, 0), BlockKind.PISTON, Orientation.EAST),
            BlockPlacement((2, 0, 0), BlockKind.QUARTZ_BLOCK, Orientation.NORTH),
        ])
        for _ in range(3):
            w, _ = step(w, TICK)
        checks.append(
            w.blocks[(3, 0, 0)].kind is BlockKind.QUARTZ_BLOCK
            and w.blocks[(2, 0, 0)].kind is BlockKind.PISTON_HEAD_NORMAL
            and w.blocks[(1, 0, 0)].extended
        )

        # push limit: a 13-block column never moves
        from voxelflight import Block

        w = WorldState()
        w.blocks[(0, 1, 0)] = Block(BlockKind.REDSTONE_BLOCK, Orientation.NORTH)
        w.blocks[(0, 0, 0)] = Block(BlockKind.PISTON, Orientation.EAST)
        for x in range(1, 14):
            w.blocks[(x, 0, 0)] = Block(BlockKind.QUARTZ_BLOCK, Orientation.NORTH)
        frozen = dict(w.blocks)
        for _ in range(10):
            w, _ = step(w, TICK)
        checks.append(w.blocks == frozen)

        # sticky retraction: pulls the slime against the head plus its rider
        w = WorldState()
        w.blocks[(0, 0, 0)] = Block(BlockKind.STICKY_PISTON, Orientation.EAST, True)
        w.blocks[(1, 0, 0)] = Block(BlockKind.PISTON_HEAD_STICKY, Orientation.EAST)
        w.blocks[(2, 0, 0)] = Block(BlockKind.SLIME_BLOCK, Orientation.NORTH)
        w.blocks[(2, 1, 0)] = Block(BlockKind.QUARTZ_BLOCK, Orientation.NORTH)
        for _ in range(3):
            w, _ = step(w, TICK)
        checks.append(
            (1, 0, 0) in w.blocks
            and w.blocks[(1, 0, 0)].kind is BlockKind.SLIME_BLOCK
            and w.blocks[(1, 1, 0)].kind is BlockKind.QUARTZ_BLOCK
            and not w.blocks[(0, 0, 0)].extended
        )

        # observer pulse chain: pushed quartz -> observer pulse -> second piston fires
        w = place_shape(WorldState(), [
            BlockPlacement((0, 0, 0), BlockKind.REDSTONE_BLOCK, Orientation.NORTH),
            BlockPlacement((1, 0, 0), BlockKind.PISTON, Orientation.EAST),
            BlockPlacement((2, 0, 0), BlockKind.QUARTZ_BLOCK, Orientation.NORTH),
            BlockPlacement((2, 0, 1), BlockKind.OBSERVER, Orientation.NORTH),
            BlockPlacement((2, 0, 2), BlockKind.PISTON, Orientation.EAST),
        ])
        for _ in range(3):
            w, _ = step(w, TICK)
        pulse_ok = absolute_times(w)[1] == [((2, 0, 2), 4, 6)]
        for _ in range(4):
            w, _ = step(w, TICK)
        extended_ok = w.blocks[(2, 0, 2)].extended
        for _ in range(3):
            w, _ = step(w, TICK)
        retracted_ok = not w.blocks[(2, 0, 2)].extended and (3, 0, 2) not in w.blocks
        checks.append(pulse_ok and extended_ok and retracted_ok)

        # reference flying machine: > 6 blocks leave the 9x9x9 watch region in < 200 ticks
        watch = Box.cube((1, 1, 1), 9)
        w = place_shape(WorldState(), reference_flyer)
        placed = len(reference_flyer)
        escaped = False
        while w.tick < 200:
            w, _ = step(w, TICK)
            if placed - count_blocks(w, watch) > 6:
                escaped = True
                break
        checks.append(escaped and w.tick < 200)

        report(5, "extension, push-limit block, sticky pull, observer chain, and flyer escape fixtures all reproduce", all(checks))


@pytest.fixture(scope="module")
def determinism_runs(tmp_path_factory):
    """Criterion 6's ME.PO run (100 init + 2000 offspring), 1 vs 8 workers,
    and the accepted inserts of the 1-worker run."""
    budget = SearchBudget(init_samples=100, offspring=2000)
    archives = {}
    trees = {}
    cfg = ExperimentConfig(method=Method.ME_PO, decode=DEC_OBS, runs=1, seed_base=5150, budget=budget, log_interval=100, out_dir="unused")
    with pytest.MonkeyPatch.context() as mp:
        accepted = record_accepted_inserts(mp)
        runs = {1: map_elites_run(budget, PO, DEC_OBS, TICK, FIT, seed=5150, workers=1)}
    runs[8] = map_elites_run(budget, PO, DEC_OBS, TICK, FIT, seed=5150, workers=8)
    for workers, (archive, log) in runs.items():
        out = tmp_path_factory.mktemp(f"workers_{workers}")
        save_archive(archive, str(out / "archive"), cfg, seed=5150, evaluations=log.evaluations)
        (out / "log.csv").write_text(log.to_csv())
        tree = {}
        for dirpath, _dirs, files in os.walk(out):
            for name in files:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    tree[os.path.relpath(path, out)] = fh.read()
        archives[workers] = archive
        trees[workers] = tree
    return archives, trees, accepted


class TestCriterion6Determinism:
    def test_criterion_6_worker_independence(self, determinism_runs):
        _archives, trees, _accepted = determinism_runs
        report(6, "ME.PO run with 1 worker and 8 workers yields byte-identical archives and logs", trees[1] == trees[8])


class TestCriterion7ArchiveInvariants:
    def test_criterion_7_archive_invariants(self, determinism_runs):
        archives, _trees, accepted = determinism_runs
        archive: Archive = archives[1]

        series = {}
        for bin_index, fitness, _eval in accepted:
            series.setdefault(bin_index, []).append(fitness)
        monotone = all(all(b > a for a, b in zip(s, s[1:])) for s in series.values())

        bins_ok = all(
            PO.bin_index(PO.descriptor(decode(entry.genome, DEC_OBS))) == idx
            for idx, entry in archive.bins.items()
        )

        reeval_ok = all(
            evaluate(entry.genome, DEC_OBS, TICK, FIT).fitness == entry.fitness
            for entry in archive.bins.values()
        )
        report(7, "per-bin fitness series non-decreasing, occupants map to their bins, stored fitness re-verifies exactly", monotone and bins_ok and reeval_ok)


class TestCriterion8DeskScaleComparison:
    @pytest.mark.slow
    def test_criterion_8_desk_scale_comparison(self):
        """5 x 10,000 evaluations of ME.PO and PF on the observer set.

        Under this simulator's physics the minimal flying machine needs about
        a dozen precisely arranged blocks, so neither method flies at this
        budget and the prescribed fallback applies: ME.PO bin growth must be
        monotone and ME.PO's campaign best fitness must meet or exceed PF's
        at every logged interval. The second clause fails here because the
        campaign maximum follows one PF run: per run, ME.PO's best beats
        PF's in 4 of 5 seeds (ME.PO 3.021, 2.911, 3.159, 3.282, 3.807; PF
        1.571, 4.576, 1.137, 1.688, 2.899 for seeds 0-4), but PF's seed 1
        reaches 4.576, above every ME.PO run. The assertion is kept faithful
        and this test documents the failure rather than hiding it.
        """
        runs = 5
        me_logs = []
        pf_logs = []
        me_flights = pf_flights = 0
        me_dirs = set()
        pf_dirs = set()
        for seed in range(runs):
            _, log = map_elites_run(
                SearchBudget(init_samples=100, offspring=9900), PO, DEC_OBS, TICK, FIT, seed=seed,
            )
            me_logs.append(log)
            me_flights += 1 if log.flights else 0
            me_dirs.update(log.first_flights)
        for seed in range(runs):
            _, log = mu_plus_lambda_run(
                SearchBudget(mu=20, lam=20, generations=499), DEC_OBS, TICK, FIT, seed=seed,
            )
            pf_logs.append(log)
            pf_flights += 1 if log.flights else 0
            pf_dirs.update(log.first_flights)

        if me_flights or pf_flights:
            ok = me_flights >= pf_flights and len(me_dirs) >= len(pf_dirs)
            report(8, f"ME.PO successes {me_flights} >= PF {pf_flights} and directions {len(me_dirs)} >= {len(pf_dirs)}", ok)
            return

        occupied_curves = [[row[1] for row in log.rows] for log in me_logs]
        monotone = all(all(b >= a for a, b in zip(c, c[1:])) for c in occupied_curves)

        me_best = np.array([[row[2] for row in log.rows] for log in me_logs]).max(axis=0)
        pf_best = np.array([[row[2] for row in log.rows] for log in pf_logs]).max(axis=0)
        dominance = bool((me_best >= pf_best).all())
        losing = int((me_best < pf_best).sum())
        report(
            8,
            "fallback: ME.PO bin growth monotone"
            + (" and best fitness >= PF at every interval"
               if dominance else f" BUT ME.PO best < PF best at {losing}/{len(me_best)} intervals"),
            monotone and dominance,
        )


class TestCriterion9Elitism:
    def test_criterion_9_pf_elitism_desk_scale(self):
        budget = SearchBudget(mu=20, lam=20, generations=100)
        _, log = mu_plus_lambda_run(budget, DEC_OBS, TICK, FIT, seed=777, log_interval=100)
        bests = [row[2] for row in log.rows]
        ok = len(bests) >= 20 and all(b >= a for a, b in zip(bests, bests[1:]))
        report(9, "PF best-fitness series non-decreasing over a 100-generation run", ok)
