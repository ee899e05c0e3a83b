import numpy as np
import pytest

from voxelflight import (
    Archive,
    ArchiveLayout,
    BlockKind,
    BlockPlacement,
    BlockSet,
    Characterization,
    DecodeConfig,
    EvaluationResult,
    FitnessConfig,
    Method,
    Orientation,
    SearchBudget,
    TickConfig,
    decode,
    evaluate,
    map_elites_run,
    mu_plus_lambda_run,
)
from voxelflight import search

from helpers import genome_for_shape, record_accepted_inserts

DEC = DecodeConfig(block_set=BlockSet.OBSERVER)
TICK = TickConfig()
FIT = FitnessConfig()
PO = ArchiveLayout(Characterization.PISTON_ORIENTATION)


def result_with(fitness):
    return EvaluationResult(fitness, False, None, [], 0, 20)


def tiny_budget(**kw):
    defaults = dict(init_samples=30, offspring=120, mu=6, lam=6, generations=8, crossover_prob=0.5)
    defaults.update(kw)
    return SearchBudget(**defaults)


class TestInsert:
    def test_empty_bin_accepts(self):
        archive = Archive()
        assert archive.insert(0, np.zeros(81), result_with(1.0), 1)

    def test_tie_keeps_incumbent(self):
        archive = Archive()
        archive.insert(0, np.zeros(81), result_with(1.0), 1)
        assert not archive.insert(0, np.ones(81), result_with(1.0), 2)
        assert archive.bins[0].genome[0] == 0.0

    def test_strictly_fitter_replaces(self):
        archive = Archive()
        archive.insert(0, np.zeros(81), result_with(1.0), 1)
        assert archive.insert(0, np.ones(81), result_with(1.5), 2)
        assert archive.bins[0].fitness == 1.5
        assert archive.bins[0].discovered_eval == 2


class TestMapElites:
    def test_zero_offspring_is_init_only(self):
        budget = tiny_budget(offspring=0)
        archive, log = map_elites_run(budget, PO, DEC, TICK, FIT, seed=1)
        assert log.evaluations == budget.init_samples
        assert 1 <= len(archive.bins) <= PO.total_bins

    def test_occupied_bounds_after_run(self):
        archive, log = map_elites_run(tiny_budget(), PO, DEC, TICK, FIT, seed=2)
        assert 1 <= len(archive.bins) <= PO.total_bins
        assert log.evaluations == 30 + 120

    def test_crossover_prob_zero_runs_clean(self):
        archive, _ = map_elites_run(tiny_budget(crossover_prob=0.0), PO, DEC, TICK, FIT, seed=3)
        assert len(archive.bins) >= 1

    def test_reproducible_from_seed(self):
        a1, log1 = map_elites_run(tiny_budget(), PO, DEC, TICK, FIT, seed=7)
        a2, log2 = map_elites_run(tiny_budget(), PO, DEC, TICK, FIT, seed=7)
        assert sorted(a1.bins) == sorted(a2.bins)
        for idx in a1.bins:
            assert (a1.bins[idx].genome == a2.bins[idx].genome).all()
            assert a1.bins[idx].fitness == a2.bins[idx].fitness
            assert a1.bins[idx].discovered_eval == a2.bins[idx].discovered_eval
        assert log1.rows == log2.rows

    def test_worker_count_does_not_change_results(self):
        a1, log1 = map_elites_run(tiny_budget(), PO, DEC, TICK, FIT, seed=11, workers=1)
        a4, log4 = map_elites_run(tiny_budget(), PO, DEC, TICK, FIT, seed=11, workers=4)
        assert sorted(a1.bins) == sorted(a4.bins)
        for idx in a1.bins:
            assert (a1.bins[idx].genome == a4.bins[idx].genome).all()
            assert a1.bins[idx].fitness == a4.bins[idx].fitness
        assert log1.rows == log4.rows

    def test_per_bin_fitness_series_non_decreasing(self, monkeypatch):
        accepted = record_accepted_inserts(monkeypatch)
        map_elites_run(tiny_budget(offspring=300), PO, DEC, TICK, FIT, seed=13)
        series: dict[int, list[float]] = {}
        for bin_index, fitness, _eval in accepted:
            series.setdefault(bin_index, []).append(fitness)
        assert series
        for fitnesses in series.values():
            assert all(b > a for a, b in zip(fitnesses, fitnesses[1:]))

    def test_discovered_eval_is_the_last_accepted_insert(self, monkeypatch):
        accepted = record_accepted_inserts(monkeypatch)
        archive, log = map_elites_run(tiny_budget(), PO, DEC, TICK, FIT, seed=31)
        last = {bin_index: eval_number for bin_index, _fitness, eval_number in accepted}
        assert {idx: entry.discovered_eval for idx, entry in archive.bins.items()} == last
        assert all(1 <= entry.discovered_eval <= log.evaluations for entry in archive.bins.values())

    def test_occupants_map_to_their_bins(self):
        archive, _ = map_elites_run(tiny_budget(), PO, DEC, TICK, FIT, seed=17)
        for idx, entry in archive.bins.items():
            shape = decode(entry.genome, DEC)
            assert PO.bin_index(PO.descriptor(shape)) == idx

    def test_stored_fitness_reproducible(self):
        archive, _ = map_elites_run(tiny_budget(offspring=50), PO, DEC, TICK, FIT, seed=19)
        for entry in archive.bins.values():
            again = evaluate(entry.genome, DEC, TICK, FIT)
            assert again.fitness == entry.fitness

    def test_log_snapshot_cadence(self):
        budget = tiny_budget(init_samples=30, offspring=120)
        _, log = map_elites_run(budget, PO, DEC, TICK, FIT, seed=23, log_interval=50)
        assert [row[0] for row in log.rows] == [50, 100, 150]

    def test_log_ends_at_the_last_evaluation(self):
        budget = tiny_budget(init_samples=10, offspring=15)
        archive, log = map_elites_run(budget, PO, DEC, TICK, FIT, seed=23, log_interval=10)
        assert [row[0] for row in log.rows] == [10, 20, 25]
        best = max(e.fitness for e in archive.bins.values())
        assert log.rows[-1][:4] == (log.evaluations, len(archive.bins), best, log.flights)

    def test_log_csv_shape(self):
        _, log = map_elites_run(tiny_budget(offspring=40), PO, DEC, TICK, FIT, seed=29)
        lines = log.to_csv().strip().splitlines()
        assert lines[0].startswith("evaluations,occupied_bins,best_fitness,flights")
        assert len(lines) == 1 + len(log.rows)


class TestMuPlusLambda:
    def test_evaluation_count(self):
        budget = tiny_budget(mu=3, lam=5, generations=4)
        pop, log = mu_plus_lambda_run(budget, DEC, TICK, FIT, seed=1)
        assert len(pop) == 3
        # 3 + 5*4 = 23 evaluations in total
        assert log.evaluations == 23
        assert log.rows[-1][0] == 23

    def test_log_ends_at_the_last_evaluation(self):
        pop, log = mu_plus_lambda_run(tiny_budget(mu=4, lam=3, generations=3), DEC, TICK, FIT, seed=1, log_interval=7)
        assert [row[0] for row in log.rows] == [7, 13]
        assert log.rows[-1][:4] == (log.evaluations, 4, max(ind.fitness for ind in pop), log.flights)

    def test_paper_scale_arithmetic(self):
        budget = SearchBudget(mu=20, lam=20, generations=3005)
        assert budget.mu + budget.lam * budget.generations == 60_120

    def test_elitist_best_non_decreasing(self):
        pop, log = mu_plus_lambda_run(
            tiny_budget(mu=5, lam=5, generations=12), DEC, TICK, FIT, seed=3, log_interval=5,
        )
        bests = [row[2] for row in log.rows]
        assert all(b >= a for a, b in zip(bests, bests[1:]))

    def test_no_variation_children_are_tournament_winners(self, monkeypatch):
        # crossover 0 and a mutation that returns its genomes unchanged: every
        # child is an exact clone of an initial parent, so only the initial
        # genomes ever exist.
        monkeypatch.setattr(search, "polynomial_mutate", lambda genomes, uniforms: genomes)
        budget = tiny_budget(mu=4, lam=4, generations=2, crossover_prob=0.0)
        pop, _ = mu_plus_lambda_run(budget, DEC, TICK, FIT, seed=5)
        init_rng = np.random.default_rng(5)
        initial = [init_rng.random(DEC.genome_length) for _ in range(budget.mu)]
        for ind in pop:
            assert any((ind.genome == g).all() for g in initial)

    def test_worse_children_leave_population_unchanged(self):
        from voxelflight.search import Elite, select_survivors

        parents = [Elite(np.zeros(3), 5.0 - i, False, None, 1 + i) for i in range(4)]
        children = [Elite(np.ones(3), 0.5, False, None, 5 + i) for i in range(4)]
        assert select_survivors(parents + children, 4) == parents

    def test_tied_children_lose_to_older_parents(self):
        from voxelflight.search import Elite, select_survivors

        parents = [Elite(np.zeros(3), 1.0, False, None, 1 + i) for i in range(3)]
        clones = [Elite(np.ones(3), 1.0, False, None, 4 + i) for i in range(3)]
        assert select_survivors(parents + clones, 3) == parents

    def test_reproducible_from_seed(self):
        p1, log1 = mu_plus_lambda_run(tiny_budget(mu=4, lam=4, generations=5), DEC, TICK, FIT, seed=9)
        p2, log2 = mu_plus_lambda_run(tiny_budget(mu=4, lam=4, generations=5), DEC, TICK, FIT, seed=9)
        assert log1.rows == log2.rows
        for a, b in zip(p1, p2):
            assert (a.genome == b.genome).all() and a.fitness == b.fitness

    def test_worker_count_does_not_change_results(self):
        p1, log1 = mu_plus_lambda_run(tiny_budget(mu=4, lam=4, generations=5), DEC, TICK, FIT, seed=10, workers=1)
        p3, log3 = mu_plus_lambda_run(tiny_budget(mu=4, lam=4, generations=5), DEC, TICK, FIT, seed=10, workers=3)
        assert log1.rows == log3.rows
        for a, b in zip(p1, p3):
            assert (a.genome == b.genome).all() and a.fitness == b.fitness


MINI = SearchBudget(init_samples=2, offspring=6, mu=2, lam=2, generations=3)


@pytest.mark.parametrize("method", ["me-c", "me-cn", "me-po", "pf"])
@pytest.mark.parametrize("seed", [0, 1, 3])  # seed 3 starts with a static genome, so its first best is 0.0
@pytest.mark.parametrize("budget, zero_tie_first", [
    (MINI, False),
    (MINI, True),
    (tiny_budget(offspring=40, generations=6), False),
], ids=["tiny", "tiny-zero-tie-first", "small"])
def test_log_best_is_the_elitist_best(method, seed, budget, zero_tie_first, monkeypatch):
    """The log's running best is what a scan of the archive or population
    gives, down to its repr: among tied values the log keeps the earliest,
    as `max` over bins or survivors does."""
    if zero_tie_first:
        # The first two genomes tie at zero: the empty shape has no centre of
        # mass and scores the int 0, and a lone block is static and scores 0.0.
        lone_block = genome_for_shape([BlockPlacement((0, 0, 0), BlockKind.SLIME_BLOCK, Orientation.UP)], DEC)
        firsts = [np.zeros(DEC.genome_length), lone_block]
        real_random_genome = search.random_genome
        monkeypatch.setattr(
            search, "random_genome", lambda rng, n: firsts.pop(0) if firsts else real_random_genome(rng, n),
        )
    characterization = Method(method).characterization
    if characterization is None:
        pop, log = mu_plus_lambda_run(budget, DEC, TICK, FIT, seed=seed, log_interval=1)
        assert repr(log.best_fitness) == repr(log.rows[-1][2]) == repr(max(ind.fitness for ind in pop))
    else:
        accepted = record_accepted_inserts(monkeypatch)
        _, log = map_elites_run(budget, ArchiveLayout(characterization), DEC, TICK, FIT, seed=seed, log_interval=1)
        assert [row[0] for row in log.rows] == list(range(1, log.evaluations + 1))
        inserted = {eval_number: (bin_index, fitness) for bin_index, fitness, eval_number in accepted}
        elites: dict[int, float] = {}
        for row in log.rows:
            if row[0] in inserted:
                bin_index, fitness = inserted[row[0]]
                elites[bin_index] = fitness
            assert row[1] == len(elites)
            assert repr(row[2]) == repr(max(elites.values()))
    if zero_tie_first:
        assert [repr(row[2]) for row in log.rows[:2]] == ["0", "0"]
