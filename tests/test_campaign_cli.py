import os

import pytest

from voxelflight import (
    Archive,
    ArchiveLayout,
    BlockSet,
    Characterization,
    DecodeConfig,
    ExperimentConfig,
    FitnessConfig,
    Method,
    SearchBudget,
    TickConfig,
    decode,
    evaluate,
    genome_to_line,
    parse_shape,
    read_shape_file,
    run_campaign,
)
from voxelflight.campaign import (
    RunOutcome,
    round_up_to_interval,
    run_single,
    save_archive,
    summarize,
)
from voxelflight.cli import main, parse_config_file

from helpers import genome_for_shape

TINY = SearchBudget(init_samples=15, offspring=30, mu=4, lam=4, generations=4)


def tiny_config(out_dir, **kw):
    defaults = dict(
        method=Method.ME_PO,
        block_set=BlockSet.OBSERVER,
        runs=2,
        seed_base=100,
        budget=TINY,
        log_interval=10,
        out_dir=str(out_dir),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


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
        summary = run_campaign(cfg)
        assert summary.runs == 2
        assert (tmp_path / "c" / "summary.csv").exists()
        assert (tmp_path / "c" / "directions.csv").exists()
        assert (tmp_path / "c" / "first_flights.csv").exists()
        assert (tmp_path / "c" / "runs" / "run_000" / "log.csv").exists()
        assert (tmp_path / "c" / "runs" / "run_001" / "archive" / "manifest.txt").exists()

    def test_byte_identical_summaries(self, tmp_path):
        run_campaign(tiny_config(tmp_path / "a"))
        run_campaign(tiny_config(tmp_path / "b"))
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_pf_campaign_runs(self, tmp_path):
        cfg = tiny_config(tmp_path / "pf", method=Method.PF, runs=1)
        summary = run_campaign(cfg)
        assert (tmp_path / "pf" / "runs" / "run_000" / "population.txt").exists()
        assert summary.success_count in (0, 1)

    def test_direction_counting_contract(self):
        cfg = tiny_config("unused")
        outcomes = [
            RunOutcome(0, True, 500, ("NORTH", "SOUTH"), 55.0, 1000),
            RunOutcome(1, False, None, (), 3.0, 1000),
        ]
        summary = summarize(cfg, outcomes)
        assert summary.success_count == 1
        assert summary.direction_run_counts["NORTH"] == 1
        assert summary.direction_run_counts["SOUTH"] == 1
        assert summary.direction_run_counts["EAST"] == 0
        assert summary.avg_distinct_directions == 1.0
        assert summary.max_distinct_directions == 2
        assert summary.first_flight_evals == [500, "never"]

    def test_first_flight_rounding(self):
        assert round_up_to_interval(401, 100) == 500
        assert round_up_to_interval(500, 100) == 500
        assert round_up_to_interval(1, 100) == 100

    @pytest.mark.parametrize("method", [Method.ME_PO, Method.PF])
    def test_outcome_counts_every_evaluation(self, method, monkeypatch):
        import voxelflight.search as search

        real_evaluate = search.evaluate
        calls = []

        def counting_evaluate(*args):
            calls.append(1)
            return real_evaluate(*args)

        monkeypatch.setattr(search, "evaluate", counting_evaluate)
        outcome, _log = run_single(tiny_config("unused", method=method), seed=3)
        expected = TINY.mu + TINY.lam * TINY.generations if method is Method.PF else TINY.init_samples + TINY.offspring
        assert outcome.evaluations == len(calls) == expected

    def test_summary_matches_log_recount(self, tmp_path):
        cfg = tiny_config(tmp_path / "c", runs=1)
        summary = run_campaign(cfg)
        log_path = tmp_path / "c" / "runs" / "run_000" / "log.csv"
        rows = [line.split(",") for line in log_path.read_text().strip().splitlines()[1:]]
        last = rows[-1]
        directions_in_log = sum(1 for v in last[4:10] if int(v) > 0)
        assert directions_in_log == len(summary.outcomes[0].directions)


class TestArchivePersistence:
    def _flyer_archive(self, fixtures_dir):
        decode_cfg = DecodeConfig(block_set=BlockSet.OBSERVER)
        shape = read_shape_file(os.path.join(fixtures_dir, "reference_flyer.shape"))
        genome = genome_for_shape(shape, decode_cfg)
        result = evaluate(genome, decode_cfg, TickConfig(), FitnessConfig())
        layout = ArchiveLayout(Characterization.PISTON_ORIENTATION)
        archive = Archive(layout)
        archive.evaluations = 1
        bin_index = layout.bin_index(layout.descriptor(decode(genome, decode_cfg)))
        archive.insert(bin_index, genome, result)
        return archive, bin_index, genome, result

    def test_export_round_trip(self, tmp_path, fixtures_dir):
        archive, bin_index, genome, result = self._flyer_archive(fixtures_dir)
        cfg = tiny_config(tmp_path, runs=1)
        save_archive(archive, str(tmp_path / "archive"), cfg, seed=0)

        out = tmp_path / "flyer_export.shape"
        rc = main([
            "export", "--in", str(tmp_path), "--bin", str(bin_index),
            "--out", str(out), "--method", "me-po", "--block-set", "observer",
        ])
        assert rc == 0
        exported = parse_shape(out.read_text())
        assert sorted(exported) == sorted(decode(genome, DecodeConfig(block_set=BlockSet.OBSERVER)))
        again = evaluate(genome, DecodeConfig(block_set=BlockSet.OBSERVER), TickConfig(), FitnessConfig())
        assert again.flew is True and again.fitness == result.fitness
        header = out.read_text().splitlines()[:4]
        assert any("fitness" in line for line in header)

    def test_export_missing_bin(self, tmp_path, fixtures_dir):
        archive, bin_index, _, _ = self._flyer_archive(fixtures_dir)
        cfg = tiny_config(tmp_path, runs=1)
        save_archive(archive, str(tmp_path / "archive"), cfg, seed=0)
        from voxelflight.campaign import SelectorError, export_shape_file

        with pytest.raises(SelectorError):
            export_shape_file(cfg, str(tmp_path / "archive"), bin_index + 1, str(tmp_path / "x.shape"))


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        rc = main([
            "run", "--method", "me-po", "--block-set", "observer", "--runs", "1",
            "--evals", "30", "--init-samples", "10", "--seed", "7",
            "--log-interval", "10", "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "successful runs" in captured
        rc = main(["report", "--in", str(out)])
        assert rc == 0
        assert "success_count" in capsys.readouterr().out

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
        shape = read_shape_file(os.path.join(fixtures_dir, "reference_flyer.shape"))
        genome = genome_for_shape(shape, decode_cfg)
        path = tmp_path / "flyer.genome"
        path.write_text(genome_to_line(genome) + "\n")
        rc = main(["replay", "--genome", str(path), "--block-set", "observer"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "54.9,true,EAST,1,60" in out

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
        bad.write_text("methodme-c\n")
        with pytest.raises(ValueError):
            parse_config_file(str(bad))
        unknown = tmp_path / "unknown.cfg"
        unknown.write_text("nope = 1\n")
        with pytest.raises(ValueError):
            main(["run", "--config", str(unknown)])

    def test_no_observer_bug_flag(self, tmp_path):
        out = tmp_path / "nobug"
        main([
            "run", "--method", "me-c", "--runs", "1", "--evals", "10",
            "--init-samples", "10", "--seed", "1", "--no-observer-bug",
            "--log-interval", "10", "--out", str(out),
        ])
        assert "emulate_observer_bug = false" in (out / "config.txt").read_text()
