import dataclasses
import os
import re
import subprocess
import sys

import pytest

import voxelflight
from voxelflight import (
    Archive,
    ArchiveLayout,
    BlockKind,
    BlockPlacement,
    BlockSet,
    Characterization,
    DecodeConfig,
    ExperimentConfig,
    FitnessConfig,
    Method,
    Orientation,
    RunLog,
    SearchBudget,
    TickConfig,
    apply_observer_bug,
    decode,
    evaluate,
    evaluate_shape,
    genome_from_line,
    genome_to_line,
    parse_shape,
    run_campaign,
)
from voxelflight.campaign import (
    export_shape_file,
    load_manifest,
    round_up_to_interval,
    run_single,
    save_archive,
    write_summary,
)
from voxelflight.cli import _build_parser, console_main, main, parse_config_file

from helpers import genome_for_shape

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

TINY = SearchBudget(init_samples=15, offspring=30, mu=4, lam=4, generations=4)


def tiny_config(out_dir, block_set=BlockSet.OBSERVER, emulate_observer_bug=True, **kw):
    defaults = dict(
        method=Method.ME_PO,
        decode=DecodeConfig(block_set, emulate_observer_bug),
        runs=2,
        seed_base=100,
        budget=TINY,
        log_interval=10,
        out_dir=str(out_dir),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def read_csv(path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return [dict(zip(header, row)) for row in rows]


def tree_bytes(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestCampaign:
    def test_outputs_written(self, tmp_path):
        cfg = tiny_config(tmp_path / "c")
        run_campaign(cfg)
        assert [row["seed"] for row in read_csv(tmp_path / "c" / "first_flights.csv")] == ["100", "101"]
        assert (tmp_path / "c" / "summary.csv").exists()
        assert (tmp_path / "c" / "directions.csv").exists()
        assert (tmp_path / "c" / "first_flights.csv").exists()
        assert (tmp_path / "c" / "runs" / "run_000" / "log.csv").exists()
        assert (tmp_path / "c" / "runs" / "run_001" / "archive" / "manifest.txt").exists()

    def test_byte_identical_summaries(self, tmp_path):
        run_campaign(tiny_config(tmp_path / "a"))
        run_campaign(tiny_config(tmp_path / "b"))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_rerun_replaces_stale_runs(self, tmp_path):
        run_campaign(tiny_config(tmp_path / "c", runs=3))
        run_campaign(tiny_config(tmp_path / "c", runs=1))
        assert os.listdir(tmp_path / "c" / "runs") == ["run_000"]

    def test_pf_campaign_runs(self, tmp_path):
        cfg = tiny_config(tmp_path / "pf", method=Method.PF, runs=1)
        [log] = run_campaign(cfg)
        assert (tmp_path / "pf" / "runs" / "run_000" / "population.txt").exists()
        assert all(isinstance(o, Orientation) and n >= 1 for o, n in log.first_flights.items())

    def test_direction_counting_contract(self, tmp_path):
        cfg = tiny_config(tmp_path)
        logs = [
            RunLog(first_flights={Orientation.SOUTH: 700, Orientation.NORTH: 500}, evaluations=1000, best_fitness=55.0),
            RunLog(first_flights={}, evaluations=1000, best_fitness=3.0),
        ]
        write_summary(cfg, logs)
        summary = read_csv(tmp_path / "summary.csv")[0]
        assert summary["success_count"] == "1"
        assert summary["avg_distinct_directions"] == "1.0"
        assert summary["max_distinct_directions"] == "2"
        directions = {row["direction"]: row["runs_with_flight"] for row in read_csv(tmp_path / "directions.csv")}
        assert directions == {"NORTH": "1", "SOUTH": "1", "EAST": "0", "WEST": "0", "UP": "0", "DOWN": "0"}
        flights = read_csv(tmp_path / "first_flights.csv")
        assert [row["first_flight_rounded"] for row in flights] == ["500", "never"]
        assert [row["first_flight_exact"] for row in flights] == ["500", "never"]
        # A flight after the last whole interval rounds to the run's last log row, not past it.
        cfg = tiny_config(tmp_path, runs=1, log_interval=100)
        write_summary(cfg, [RunLog(first_flights={Orientation.EAST: 540}, evaluations=550, best_fitness=55.0)])
        flights = read_csv(tmp_path / "first_flights.csv")
        assert [(row["first_flight_rounded"], row["first_flight_exact"]) for row in flights] == [("550", "540")]

    def test_first_flight_rounding(self):
        assert round_up_to_interval(401, 100) == 500
        assert round_up_to_interval(500, 100) == 500
        assert round_up_to_interval(1, 100) == 100

    @pytest.mark.parametrize("method", list(Method))
    def test_outcome_counts_every_evaluation(self, method, monkeypatch, tmp_path):
        # Each evaluation decodes its genome once: MAP-Elites bins the shape the evaluation decoded.
        import voxelflight.search as search

        real_evaluate, real_decode = search.evaluate, search.decode
        calls, decodes = [], []

        def counting_evaluate(*args):
            calls.append(1)
            return real_evaluate(*args)

        def counting_decode(*args):
            decodes.append(1)
            return real_decode(*args)

        monkeypatch.setattr(search, "evaluate", counting_evaluate)
        monkeypatch.setattr(search, "decode", counting_decode)
        log = run_single(tiny_config("unused", method=method), 3, str(tmp_path / "run"))
        expected = TINY.mu + TINY.lam * TINY.generations if method is Method.PF else TINY.init_samples + TINY.offspring
        last = (tmp_path / "run" / "log.csv").read_text().splitlines()[-1]
        total = int(last.split(",")[0])
        assert total == log.evaluations == len(calls) == len(decodes) == expected
        if method is not Method.PF:
            manifest = (tmp_path / "run" / "archive" / "manifest.txt").read_text().splitlines()
            assert f"evaluations = {total}" in manifest

    def test_summary_matches_log_recount(self, tmp_path):
        cfg = tiny_config(tmp_path / "c", runs=1)
        [log] = run_campaign(cfg)
        log_path = tmp_path / "c" / "runs" / "run_000" / "log.csv"
        rows = [line.split(",") for line in log_path.read_text().strip().splitlines()[1:]]
        firsts_in_log = [int(v) for v in rows[-1][4:10]]
        assert firsts_in_log == [log.first_flights.get(o, 0) for o in Orientation]


# Budgets long enough for PF to repeat shapes often.
MEMO_BUDGETS = {
    Method.PF: SearchBudget(mu=10, lam=10, generations=100),
    Method.ME_C: SearchBudget(init_samples=20, offspring=300),
    Method.ME_CN: SearchBudget(init_samples=20, offspring=300),
    Method.ME_PO: SearchBudget(init_samples=20, offspring=300),
}


class MissEveryLookup:
    """Stands for a run's memo in `search.evaluate`: every lookup misses, and
    every outcome is still stored in the memo, so its size is unchanged."""

    def __init__(self, memo):
        self.memo = memo

    def get(self, key, default=None):
        return default

    def __setitem__(self, key, value):
        self.memo[key] = value


def count_simulations(monkeypatch) -> list:
    """Patch `evaluate_shape` as `search.evaluate` looks it up; the returned list grows by one per call."""
    import voxelflight.search as search

    real_evaluate_shape = search.evaluate_shape
    calls = []

    def counting_evaluate_shape(*args):
        calls.append(1)
        return real_evaluate_shape(*args)

    monkeypatch.setattr(search, "evaluate_shape", counting_evaluate_shape)
    return calls


def last_distinct_shapes(run_dir) -> int:
    return int(read_csv(run_dir / "log.csv")[-1]["distinct_shapes"])


class TestShapeMemo:
    """A run simulates each distinct decoded shape once (`search.evaluate`)."""

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_memo_changes_no_output(self, method, monkeypatch, tmp_path):
        import voxelflight.search as search

        run_campaign(tiny_config(tmp_path / "memo", method=method, budget=MEMO_BUDGETS[method], log_interval=50))
        real_evaluate = search.evaluate
        monkeypatch.setattr(search, "evaluate", lambda genome, *args: real_evaluate(genome, *args[:-1], MissEveryLookup(args[-1])))
        simulated = count_simulations(monkeypatch)
        logs = run_campaign(tiny_config(tmp_path / "missing", method=method, budget=MEMO_BUDGETS[method], log_interval=50))
        assert tree_bytes(tmp_path / "memo") == tree_bytes(tmp_path / "missing")
        assert len(simulated) == sum(log.evaluations for log in logs)  # the lookups did miss
        if method is Method.PF:
            for log, run in zip(logs, ("run_000", "run_001")):
                assert last_distinct_shapes(tmp_path / "memo" / "runs" / run) < 0.9 * log.evaluations

    def test_counts_match_brute_force(self, monkeypatch, tmp_path):
        # `distinct_shapes` counts distinct placed shapes: under the observer
        # quirk, the decoded shapes with Up and Down observers turned North.
        import voxelflight.search as search

        real_evaluate = search.evaluate
        simulated = count_simulations(monkeypatch)
        calls = []  # (genome, the memo, its size, simulations so far), before each evaluation

        def recording_evaluate(genome, *args):
            calls.append((genome, args[-1], len(args[-1]), len(simulated)))
            return real_evaluate(genome, *args)

        monkeypatch.setattr(search, "evaluate", recording_evaluate)
        unrewritten = DecodeConfig(BlockSet.OBSERVER, emulate_observer_bug=False)
        merged = 0  # runs under the quirk whose placed shapes are fewer than their decoded ones
        for bug in (True, False):
            calls.clear()
            out = tmp_path / str(bug)
            logs = run_campaign(tiny_config(out, method=Method.PF, budget=MEMO_BUDGETS[Method.PF], seed_base=0, emulate_observer_bug=bug))
            first = logs[0].evaluations
            runs = (calls[:first], calls[first:])
            assert runs[1][0][1] is not runs[0][0][1]
            simulated_by = (runs[0][0][3], runs[1][0][3], len(simulated))  # before each run, and after both
            for i, (log, evaluated) in enumerate(zip(logs, runs)):
                assert len(evaluated) == log.evaluations
                memo = evaluated[0][1]
                assert evaluated[0][2] == 0  # each run starts with an empty memo
                assert all(entry[1] is memo for entry in evaluated)
                decoded = [tuple(decode(genome, unrewritten)) for genome, *_ in evaluated]
                shapes = [tuple(apply_observer_bug(list(shape))) for shape in decoded] if bug else decoded
                for row in read_csv(out / "runs" / f"run_{i:03d}" / "log.csv"):
                    assert int(row["distinct_shapes"]) == len(set(shapes[: int(row["evaluations"])]))
                assert simulated_by[i + 1] - simulated_by[i] == len(set(shapes))
                merged += len(set(shapes)) < len(set(decoded))
            assert simulated_by[2] - simulated_by[0] < len(calls)
        assert merged > 0  # guards against a vacuous pass: some run merged Up and North observers

    @pytest.mark.parametrize("bug, simulations", [(True, 1), (False, 2)])
    def test_up_and_north_observers_share_a_memo_entry_under_the_quirk(self, monkeypatch, bug, simulations):
        import voxelflight.search as search

        simulated = count_simulations(monkeypatch)
        cfg = DecodeConfig(BlockSet.OBSERVER, emulate_observer_bug=bug)
        shapes = [
            [BlockPlacement((1, 0, 1), BlockKind.PISTON, Orientation.UP), BlockPlacement((1, 1, 1), BlockKind.OBSERVER, facing)]
            for facing in (Orientation.UP, Orientation.NORTH)
        ]
        genomes = [genome_for_shape(shape, DecodeConfig(BlockSet.OBSERVER, emulate_observer_bug=False)) for shape in shapes]
        memo = {}
        outcomes = [search.evaluate(genome, cfg, TickConfig(), FitnessConfig(), memo) for genome in genomes]
        assert len(simulated) == len(memo) == simulations
        assert (outcomes[0].shape == outcomes[1].shape) is bug


class TestArchivePersistence:
    def _flyer_archive(self, fixtures_dir):
        decode_cfg = DecodeConfig(block_set=BlockSet.OBSERVER)
        with open(os.path.join(fixtures_dir, "reference_flyer.shape")) as fh:
            shape = parse_shape(fh.read())
        genome = genome_for_shape(shape, decode_cfg)
        result = evaluate(genome, decode_cfg, TickConfig(), FitnessConfig())
        layout = ArchiveLayout(Characterization.PISTON_ORIENTATION)
        archive = Archive()
        bin_index = layout.bin_index(layout.descriptor(decode(genome, decode_cfg)))
        archive.insert(bin_index, genome, result, 1)
        return archive, bin_index, genome, result

    def test_export_round_trip(self, tmp_path, fixtures_dir):
        archive, bin_index, genome, result = self._flyer_archive(fixtures_dir)
        cfg = tiny_config(tmp_path, runs=1)
        save_archive(archive, str(tmp_path / "archive"), cfg, seed=0, evaluations=1)

        out = tmp_path / "flyer_export.shape"
        rc = main([
            "export", "--in", str(tmp_path), "--bin", str(bin_index),
            "--out", str(out),
        ])
        assert rc == 0
        exported = parse_shape(out.read_text())
        assert sorted(exported) == sorted(decode(genome, DecodeConfig(block_set=BlockSet.OBSERVER)))
        again = evaluate(genome, DecodeConfig(block_set=BlockSet.OBSERVER), TickConfig(), FitnessConfig())
        assert again.flew is True and again.fitness == result.fitness
        header = out.read_text().splitlines()[:4]
        assert any("fitness" in line for line in header)

    def test_export_takes_settings_from_manifest(self, tmp_path, fixtures_dir):
        cfg = tiny_config(tmp_path, runs=1, block_set=BlockSet.ORIGINAL, emulate_observer_bug=False)
        with open(os.path.join(fixtures_dir, "reference_flyer.shape")) as fh:
            shape = parse_shape(fh.read())
        genome = genome_for_shape(shape, DecodeConfig(block_set=BlockSet.OBSERVER))
        original = DecodeConfig(block_set=BlockSet.ORIGINAL, emulate_observer_bug=False)
        decoded = decode(genome, original)
        assert decoded != shape  # the two block sets read these genes differently
        layout = ArchiveLayout(Characterization.PISTON_ORIENTATION)
        archive = Archive()
        bin_index = layout.bin_index(layout.descriptor(decoded))
        archive.insert(bin_index, genome, evaluate(genome, original, TickConfig(), FitnessConfig()), 1)
        archive_dir = str(tmp_path / "archive")
        save_archive(archive, archive_dir, cfg, seed=0, evaluations=1)

        out = tmp_path / "export.shape"
        assert main(["export", "--in", str(tmp_path), "--bin", str(bin_index), "--out", str(out)]) == 0
        assert parse_shape(out.read_text()) == decode(genome, DecodeConfig(block_set=BlockSet.ORIGINAL))
        manifest = (tmp_path / "archive" / "manifest.txt").read_text().splitlines()
        stored = next(line.split()[2] for line in manifest if line.startswith(f"bin {bin_index} "))
        assert f"# fitness {stored}" in out.read_text().splitlines()
        assert load_manifest(archive_dir) == (ArchiveLayout(Characterization.PISTON_ORIENTATION), original)

    @pytest.mark.parametrize("bug", [True, False], ids=["quirk", "no-quirk"])
    def test_export_writes_the_simulated_observer_facings(self, tmp_path, bug):
        plain = DecodeConfig(BlockSet.OBSERVER, emulate_observer_bug=False)
        quirk = DecodeConfig(BlockSet.OBSERVER)
        fit = lambda genome, cfg: evaluate(genome, cfg, TickConfig(), FitnessConfig()).fitness  # noqa: E731
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(BENCH)
            import corpus
        with open(os.path.join(BENCH, "corpus.txt")) as fh:
            _seed, sections = corpus.parse_corpus(voxelflight, fh.read())
        # The benchmark's first harvested genome whose score the quirk changes: it holds an Up or Down observer.
        genome = next(g for g in sections["harvest"] if fit(g, plain) != fit(g, quirk))
        cfg = quirk if bug else plain
        layout = ArchiveLayout(Characterization.PISTON_ORIENTATION)
        archive = Archive()
        bin_index = layout.bin_index(layout.descriptor(decode(genome, cfg)))
        archive.insert(bin_index, genome, evaluate(genome, cfg, TickConfig(), FitnessConfig()), 1)
        save_archive(archive, str(tmp_path / "archive"), tiny_config(tmp_path, runs=1, emulate_observer_bug=bug), seed=0, evaluations=1)

        out = tmp_path / "export.shape"
        assert main(["export", "--in", str(tmp_path), "--bin", str(bin_index), "--out", str(out)]) == 0
        exported = parse_shape(out.read_text())
        up_or_down = [p for p in exported if p.kind is BlockKind.OBSERVER and p.orient in (Orientation.UP, Orientation.DOWN)]
        assert exported == (apply_observer_bug(decode(genome, plain)) if bug else decode(genome, plain))
        assert bool(up_or_down) is not bug
        manifest = (tmp_path / "archive" / "manifest.txt").read_text().splitlines()
        stored = next(line.split()[2] for line in manifest if line.startswith(f"bin {bin_index} "))
        assert repr(evaluate_shape(exported, TickConfig(), FitnessConfig()).fitness) == stored

    def test_export_missing_bin(self, tmp_path, fixtures_dir):
        archive, bin_index, _, _ = self._flyer_archive(fixtures_dir)
        cfg = tiny_config(tmp_path, runs=1)
        save_archive(archive, str(tmp_path / "archive"), cfg, seed=0, evaluations=1)
        message = f"no occupant stored for bin {bin_index + 1} under {tmp_path / 'archive'}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            export_shape_file(str(tmp_path), bin_index + 1, str(tmp_path / "x.shape"))

    def test_export_of_empty_bin_exits_2_with_one_line(self, tmp_path, capsys, fixtures_dir):
        # The empty-bin case of TestCli.test_user_errors_exit_2_with_one_line;
        # it needs an archive on disk, which that test's empty directory cannot hold.
        archive, bin_index, _, _ = self._flyer_archive(fixtures_dir)
        save_archive(archive, str(tmp_path / "archive"), tiny_config(tmp_path, runs=1), seed=0, evaluations=1)
        out = tmp_path / "x.shape"
        assert console_main(["export", "--in", str(tmp_path), "--bin", str(bin_index + 1), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"voxelflight: error: no occupant stored for bin {bin_index + 1} under {tmp_path / 'archive'}\n"
        assert not out.exists()

    def test_export_of_genome_value_outside_unit_interval_exits_2(self, tmp_path, capsys, fixtures_dir):
        archive, bin_index, genome, _ = self._flyer_archive(fixtures_dir)
        save_archive(archive, str(tmp_path / "archive"), tiny_config(tmp_path, runs=1), seed=0, evaluations=1)
        stored = tmp_path / "archive" / "bins" / f"{bin_index}.genome"
        stored.write_text(genome_to_line(genome).replace("0.25", "-0.25", 1) + "\n")
        out = tmp_path / "x.shape"
        assert console_main(["export", "--in", str(tmp_path), "--bin", str(bin_index), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "voxelflight: error: genome value -0.25 is not in [0, 1]\n"
        assert not out.exists()

    def test_export_of_pf_run_exits_2_naming_the_run(self, tmp_path, capsys):
        run_campaign(tiny_config(tmp_path, method=Method.PF, runs=1))
        run_dir = tmp_path / "runs" / "run_000"
        out = tmp_path / "x.shape"
        assert console_main(["export", "--in", str(run_dir), "--bin", "0", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"voxelflight: error: {run_dir}: a pf run keeps population.txt, not an archive to export from\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("method", "pf", "method: 'pf' has no archive layout"),
        ("method", "bogus", "method: invalid value 'bogus'"),
        ("block_set", "bogus", "block_set: invalid value 'bogus'"),
        ("characterization", "block-count", "characterization: 'block-count' does not match method 'me-po'"),
        ("characterization", "bogus", "characterization: invalid value 'bogus'"),
    ])
    def test_export_of_bad_manifest_exits_2_naming_it(self, tmp_path, capsys, fixtures_dir, key, value, message):
        # Export decodes and describes the bin with the manifest's settings; none of these rows gives it a layout and block set.
        archive, bin_index, _, _ = self._flyer_archive(fixtures_dir)
        save_archive(archive, str(tmp_path / "archive"), tiny_config(tmp_path, runs=1), seed=0, evaluations=1)
        manifest = tmp_path / "archive" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines) + "\n")
        out = tmp_path / "x.shape"
        assert console_main(["export", "--in", str(tmp_path), "--bin", str(bin_index), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"voxelflight: error: {manifest}: {message}\n"
        assert not out.exists()


ARCHIVE_METHODS = [method for method in Method if method.characterization is not None]
DECODINGS = [DecodeConfig(block_set, bug) for block_set in BlockSet for bug in (True, False)]


def decoding_id(cfg):
    return f"{cfg.block_set.value}-{'quirk' if cfg.emulate_observer_bug else 'no-quirk'}"


class TestOneTableOfDefaults:
    """The `run` parser is the only table of a run's defaults: `ExperimentConfig`
    takes every value and carries the run's one `DecodeConfig`, which needs
    its block set, from the command line to the manifest and back to `export`."""

    def test_experiment_config_has_no_defaults(self):
        fields = dataclasses.fields(ExperimentConfig)
        assert [f.name for f in fields] == ["method", "decode", "runs", "seed_base", "budget", "log_interval", "out_dir"]
        assert [f.name for f in fields if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING] == []

    def test_decode_config_needs_its_block_set(self):
        with pytest.raises(TypeError):
            DecodeConfig()
        assert DecodeConfig(BlockSet.ORIGINAL) == DecodeConfig(BlockSet.ORIGINAL, emulate_observer_bug=True)

    @pytest.mark.parametrize("decode_cfg", DECODINGS, ids=decoding_id)
    @pytest.mark.parametrize("method", ARCHIVE_METHODS, ids=lambda m: m.value)
    def test_manifest_gives_back_the_runs_layout_and_decoding(self, tmp_path, method, decode_cfg):
        cfg = tiny_config(tmp_path, method=method, decode=decode_cfg)
        save_archive(Archive(), str(tmp_path / "archive"), cfg, seed=0, evaluations=0)
        assert load_manifest(str(tmp_path / "archive")) == (ArchiveLayout(method.characterization), decode_cfg)

    @pytest.mark.parametrize("decode_cfg", DECODINGS, ids=decoding_id)
    def test_every_stored_bin_exports_to_its_fitness_and_bin(self, tmp_path, decode_cfg):
        run_campaign(tiny_config(tmp_path, method=Method.ME_C, runs=1, decode=decode_cfg))
        run_dir = tmp_path / "runs" / "run_000"
        layout = ArchiveLayout(Characterization.BLOCK_COUNT)
        manifest = (run_dir / "archive" / "manifest.txt").read_text().splitlines()
        stored = {int(line.split()[1]): line.split()[2] for line in manifest if line.startswith("bin ")}
        assert len(stored) > 1  # guards against a vacuous pass
        for bin_index, fitness in stored.items():
            out = tmp_path / f"{bin_index}.shape"
            export_shape_file(str(run_dir), bin_index, str(out))
            text = out.read_text()
            shape = parse_shape(text)
            assert repr(evaluate_shape(shape, TickConfig(), FitnessConfig()).fitness) == fitness
            assert layout.bin_index(layout.descriptor(shape)) == bin_index
            assert {f"# fitness {fitness}", f"# descriptor {list(layout.descriptor(shape))}"} <= set(text.splitlines())

    @pytest.mark.parametrize("decode_cfg", DECODINGS, ids=decoding_id)
    def test_every_population_member_re_evaluates_to_its_fitness(self, tmp_path, decode_cfg):
        run_campaign(tiny_config(tmp_path, method=Method.PF, runs=1, decode=decode_cfg))
        _header, *members = (tmp_path / "runs" / "run_000" / "population.txt").read_text().splitlines()
        assert len(members) == TINY.mu
        for member in members:
            fitness, genome = member.split(" ", 1)
            assert repr(evaluate(genome_from_line(genome), decode_cfg, TickConfig(), FitnessConfig()).fitness) == fitness


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        rc = main([
            "run", "--method", "me-po", "--block-set", "observer", "--runs", "1",
            "--evals", "30", "--init-samples", "10", "--seed", "7",
            "--log-interval", "10", "--out", str(out),
        ])
        assert rc == 0
        *shown, last = capsys.readouterr().out.splitlines(keepends=True)
        assert last == f"outputs written to {out}\n"
        rc = main(["report", "--in", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == "".join(shown)
        assert shown[:4] == ["method: me-po\n", "block_set: observer\n", "runs: 1\n", "success_count: 0\n"]
        assert "  EAST  0 run(s)\n" in shown
        assert shown[-1] == "first flights (first log.csv row at or after the flight): never\n"

    @pytest.mark.parametrize("budget, total", [
        (["--method", "me-po", "--init-samples", "10", "--evals", "15", "--log-interval", "10"], 25),
        (["--method", "pf", "--mu", "4", "--lambda", "3", "--evals", "10", "--log-interval", "7"], 13),
    ])
    def test_log_csv_ends_at_the_last_evaluation(self, tmp_path, budget, total):
        out = tmp_path / "campaign"
        assert main(["run", "--block-set", "observer", "--runs", "1", "--seed", "2", "--out", str(out)] + budget) == 0
        rows = (out / "runs" / "run_000" / "log.csv").read_text().strip().splitlines()
        assert int(rows[-1].split(",")[0]) == total

    def test_report_compares_campaigns(self, tmp_path, capsys):
        for i, method in enumerate(("me-po", "pf")):
            main([
                "run", "--method", method, "--block-set", "observer", "--runs", "1",
                "--evals", "20", "--init-samples", "10", "--mu", "4", "--lambda", "4",
                "--seed", str(i), "--log-interval", "10",
                "--out", str(tmp_path / method),
            ])
        rc = main(["report", "--in", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fisher" in out
        assert (tmp_path / "comparisons.csv").exists()

    def test_replay(self, tmp_path, capsys, fixtures_dir):
        decode_cfg = DecodeConfig(block_set=BlockSet.OBSERVER)
        with open(os.path.join(fixtures_dir, "reference_flyer.shape")) as fh:
            shape = parse_shape(fh.read())
        genome = genome_for_shape(shape, decode_cfg)
        path = tmp_path / "flyer.genome"
        path.write_text(genome_to_line(genome) + "\n")
        rc = main(["replay", "--genome", str(path), "--block-set", "observer"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "54.9,true,EAST,1,60" in out

    @pytest.mark.parametrize("value", ["-0.4", "nan"])
    def test_replay_rejects_genome_values_outside_unit_interval(self, tmp_path, capsys, value):
        # Decoded, a kind gene of -0.4 would silently pick the block set's second-to-last member.
        path = tmp_path / "bad.genome"
        path.write_text(" ".join(["0.9", value] + ["0.25"] * 79) + "\n")
        assert console_main(["replay", "--genome", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"voxelflight: error: genome value {value} is not in [0, 1]\n"

    def test_config_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# experiment settings\n"
            "method = me-c\n"
            "runs = 1\n"
            "evals = 20\n"
            "init-samples = 10\n"
            "seed = 3\n"
            "log-interval = 10\n"
            f"out = {tmp_path / 'from_file'}\n"
        )
        rc = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "cli_wins")])
        assert rc == 0
        assert (tmp_path / "cli_wins" / "summary.csv").exists()
        assert not (tmp_path / "from_file").exists()
        text = (tmp_path / "cli_wins" / "config.txt").read_text()
        assert "method = me-c" in text  # file value survived where not overridden

    @pytest.mark.parametrize("budget", [
        ["--method", "me-po", "--init-samples", "10", "--evals", "25"],
        ["--method", "pf", "--mu", "4", "--lambda", "3", "--generations", "5", "--crossover-prob", "0.25"],
    ])
    def test_config_echo_reruns_identically(self, tmp_path, budget):
        first, again = tmp_path / "first", tmp_path / "again"
        main(["run", "--runs", "2", "--seed", "4", "--log-interval", "5", "--no-observer-bug", "--out", str(first)] + budget)
        main(["run", "--config", str(first / "config.txt"), "--out", str(again)])
        outputs = tree_bytes(first)
        assert {"summary.csv", "directions.csv", "first_flights.csv", os.path.join("runs", "run_001", "log.csv")} <= set(outputs)
        assert tree_bytes(again) == outputs

    def test_config_file_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("method = me-c\nbogus\n")
        with pytest.raises(ValueError) as raised:
            parse_config_file(str(bad))
        assert str(raised.value) == f"{bad}:2: expected 'key = value', got 'bogus'"  # no trailing newline
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("nope = 1\n")
        with pytest.raises(ValueError):
            main(["run", "--config", str(unknown)])

    @pytest.mark.parametrize("argv", [
        ["run", "--runs", "0"],
        ["run", "--init-samples", "0"],
        ["export", "--in", "no_such_run", "--bin", "0", "--out", "x.shape"],
        ["run", "--method", "pf", "--lambda", "0", "--evals", "10"],
        ["report", "--in", "."],
        ["run", "--seed", "-1"],
    ])
    def test_user_errors_exit_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert console_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("voxelflight: error: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("text, message", [
        ("method,runs\nx,1\n", "missing column success_count"),
        ("method,runs,success_count\nx,1,many\n", "success_count 'many' is not a count"),
        ("method,runs,success_count\nx,0,0\n", "runs is 0"),
        ("method,runs,success_count\nx,2,5\n", "success_count 5 exceeds runs 2"),
        ("method,runs,success_count\n", "0 rows, expected 1"),
        ("method,runs,success_count\nx,2,1,0\n", "line 2 has 4 values for 3 columns"),
    ], ids=["missing-column", "not-a-count", "no-runs", "more-successes-than-runs", "no-row", "extra-value"])
    def test_report_of_malformed_summary_exits_2_naming_it(self, tmp_path, capsys, text, message):
        # The malformed-summary case of test_user_errors_exit_2_with_one_line;
        # it needs a file on disk, which that test's empty directory cannot hold.
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "summary.csv").write_text(text)
        assert console_main(["report", "--in", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"voxelflight: error: {tmp_path / 'a' / 'summary.csv'}: {message}\n"
        assert not (tmp_path / "comparisons.csv").exists()

    @pytest.mark.parametrize("name, row, message", [
        ("directions.csv", "EAST,0", "line 8 has 2 values for 3 columns"),
        ("first_flights.csv", "2,102,never,never,1.5,extra", "line 4 has 6 values for 5 columns"),
    ])
    def test_report_of_malformed_row_exits_2_naming_the_file(self, tmp_path, capsys, name, row, message):
        # Every file is checked before anything is printed, so a bad last row leaves stdout empty.
        logs = [RunLog(first_flights={}, best_fitness=1.5), RunLog(first_flights={}, best_fitness=2.5)]
        write_summary(tiny_config(tmp_path), logs)
        path = tmp_path / name
        path.write_text(path.read_text() + row + "\n")
        assert console_main(["report", "--in", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"voxelflight: error: {path}: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("emulate_observer_bug = flase", "emulate_observer_bug: invalid value 'flase'"),
        ("runs = abc", "runs: invalid value 'abc'"),
        ("method = bogus", "method: invalid choice 'bogus' (choose from pf, me-c, me-cn, me-po)"),
    ], ids=["bool-typo", "int", "choice"])
    def test_bad_config_value_exits_2_naming_file_and_key(self, tmp_path, monkeypatch, capsys, line, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text(line + "\n")
        assert console_main(["run", "--config", "bad.cfg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"voxelflight: error: bad.cfg: {message}\n"
        assert os.listdir(tmp_path) == ["bad.cfg"]

    @pytest.mark.parametrize("line, parsed", [
        ("out = res#2", {"out": "res#2"}),
        ("seed = 3  # note", {"seed": "3"}),
        ("seed = 3\t# note", {"seed": "3"}),
        ("# whole-line comment", {}),
        ("   # indented comment", {}),
    ])
    def test_config_hash_starts_a_comment_only_after_whitespace(self, tmp_path, line, parsed):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(line + "\n")
        assert parse_config_file(str(cfg_file)) == parsed

    def test_config_path_with_hash_is_written_there(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("runs = 1\nevals = 5\ninit_samples = 5\nseed = 3  # note\nout = res#2\n")
        assert console_main(["run", "--config", "exp.cfg"]) == 0
        assert capsys.readouterr().out.endswith("outputs written to res#2\n")
        assert "seed = 3\n" in (tmp_path / "res#2" / "config.txt").read_text()
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "res#2"]

    @pytest.mark.parametrize("text, key", [
        ("seed = 1\nseed = 2\n", "seed"),
        ("log-interval = 5\nlog_interval = 6\n", "log_interval"),
    ], ids=["same-spelling", "dash-and-underscore"])
    def test_config_repeated_key_exits_2(self, tmp_path, monkeypatch, capsys, text, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dup.cfg").write_text(text)
        assert console_main(["run", "--config", "dup.cfg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"voxelflight: error: dup.cfg:2: key '{key}' given twice\n"
        assert os.listdir(tmp_path) == ["dup.cfg"]

    @pytest.mark.parametrize("raw, echoed", [
        ("1", "true"), ("True", "true"), ("YES", "true"), ("on", "true"),
        ("0", "false"), ("FALSE", "false"), ("No", "false"), ("oFf", "false"),
    ])
    def test_config_booleans_in_any_case(self, tmp_path, raw, echoed):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"emulate_observer_bug = {raw}\nruns = 1\nevals = 5\ninit_samples = 5\n")
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        assert f"emulate_observer_bug = {echoed}\n" in (tmp_path / "out" / "config.txt").read_text()

    def test_config_echo_lists_every_run_setting(self, tmp_path):
        _parser, run, _settings = _build_parser()
        dests = {action.dest for action in run._actions} - {"help", "config", "out"}
        main(["run", "--runs", "1", "--evals", "5", "--init-samples", "5", "--out", str(tmp_path / "c")])
        lines = (tmp_path / "c" / "config.txt").read_text().splitlines()
        assert sorted(line.split(" = ", 1)[0] for line in lines) == sorted(dests)

    def test_config_file_values_do_not_outlive_their_call(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("method = me-c\nseed = 9\n")
        budget = ["--runs", "1", "--evals", "5", "--init-samples", "5"]
        main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "a")] + budget)
        main(["run", "--out", str(tmp_path / "b")] + budget)
        echo = (tmp_path / "b" / "config.txt").read_text().splitlines()
        assert "method = me-po" in echo and "seed = 0" in echo

    def test_console_exit_code(self, tmp_path):
        src_dir = os.path.dirname(os.path.dirname(voxelflight.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "voxelflight.cli", "run", "--runs", "0"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "voxelflight: error: runs must be >= 1\n"

    def test_no_observer_bug_flag(self, tmp_path):
        out = tmp_path / "nobug"
        main([
            "run", "--method", "me-c", "--runs", "1", "--evals", "10",
            "--init-samples", "10", "--seed", "1", "--no-observer-bug",
            "--log-interval", "10", "--out", str(out),
        ])
        assert "emulate_observer_bug = false" in (out / "config.txt").read_text()
