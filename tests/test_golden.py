"""Golden lock: the benchmark's evaluation corpus and campaigns still give their recorded results.

`bench/corpus.txt` holds 724 genomes: the reference flyer and its rotations,
busy oscillators from a fixed-seed PF run, and 600 random genomes of seed 0.
`bench/golden.json` records the digest of each one's evaluation result
(fitness, flight, direction, trajectory, leftover blocks, ticks and exit log).
A change to decoding, placement, the simulator or scoring that moves a single
result, by one bit, fails here. It also records the digests of the seed-0
ME.PO and PF campaigns (archives, populations, logs and summaries), so a
change to what the searches find fails too, and `bench/corpus.py` must still
regenerate the corpus file byte for byte. The bench files are read, never
written.
"""

import json
import os

import pytest

import voxelflight as vf
from voxelflight import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's corpus reader and result digest, imported from `bench/`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        import corpus
        import digests
    return corpus, digests


def test_corpus_results_match_golden_digests(bench):
    corpus, digests = bench
    with open(os.path.join(BENCH, "corpus.txt")) as fh:
        seed, sections = corpus.parse_corpus(vf, fh.read())
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)["eval-corpus"]
    assert seed == 0
    genomes = sections["flyer"] + sections["harvest"] + sections["random"]  # file order
    expected = golden["fixed"] + golden["seed=0"]
    assert len(genomes) == len(expected) == 724
    cfgs = vf.DecodeConfig(block_set=vf.BlockSet.OBSERVER), vf.TickConfig(), vf.FitnessConfig()
    got = [digests.result_digest(vf.evaluate(genome, *cfgs)) for genome in genomes]
    mismatched = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert mismatched == [], f"{len(mismatched)} of 724 results differ from bench/golden.json, first at genome {mismatched[:1]}"


@pytest.fixture(scope="module")
def campaign_bench():
    """The benchmark's campaign settings and digests, imported from `bench/`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        import common
        import digests
    return common, digests


@pytest.mark.parametrize("workload", ["campaign-me-po", "campaign-pf"])
def test_seeded_campaign_matches_golden_digests(campaign_bench, workload, tmp_path):
    # The benchmark's seed-0 `seeded` part: 2 runs x 500 evaluations, run as bench/rep.py runs it.
    common, digests = campaign_bench
    method, budget = common.campaign_args(workload)
    [(_part, base, runs)] = [part for part in common.campaign_parts(0) if part[0] == "seeded"]
    argv = ["run", "--method", method, "--block-set", "observer", "--runs", str(runs), "--seed", str(base)]
    assert cli.main(argv + ["--out", str(tmp_path)] + budget) == 0
    with open(os.path.join(BENCH, "golden.json")) as fh:
        golden = json.load(fh)[workload]["seed=0"]
    assert digests.campaign_digest(str(tmp_path)) == golden


def test_corpus_file_matches_its_generator(bench):
    # Rebuilds every section, including the fixed-seed PF harvest.
    corpus, _digests = bench
    try:
        corpus.check(vf, os.path.join(BENCH, "corpus.txt"))
    except SystemExit as exc:
        pytest.fail(str(exc))
