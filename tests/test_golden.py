"""Golden lock: the benchmark's evaluation corpus and campaigns still give their recorded results.

`bench/corpus.txt` holds 724 genomes: the reference flyer and its rotations,
busy oscillators from a fixed-seed PF run, and 600 random genomes of seed 0.
`bench/golden.json` records the digest of each one's evaluation result
(fitness, flight, direction, trajectory, leftover blocks, ticks and exit log).
A change to decoding, placement, the simulator or scoring that moves a single
result, by one bit, fails here. It also records the digests of the seed-0
ME.PO and PF campaigns (archives, populations, logs and summaries), and this
file those of the seed-0 ME.C and ME.CN campaigns, so a change to what the
searches find fails too, and `bench/corpus.py` must still
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


# The seed-0 ME.C and ME.CN campaigns, which the benchmark does not run: 2 runs
# x 500 evaluations (100 initial samples, then 400 offspring). Together with
# ME.PO above they lock the binning of all three MAP-Elites characterizations.
ME_GOLDEN = {
    "me-c": {
        "runs": [
            "7e7cbd0d89580ee1aae9fd7ca5b37ffcf998a2fef5aadfc4074d9b5cd79f78e3",
            "4c7b66ff127b930dd2cd27f58fa35eeab20639931d34399c674a75a4265d32d5",
        ],
        "summary": "ab6b444c339ba7013fbe6917fcbcebc04269656208b8f70aadb5a5fa35eef00f",
    },
    "me-cn": {
        "runs": [
            "7483f47381c6beb49fb607a6fade1be6a151a0ece7ed2680054f094f66a59ec9",
            "3c0e58c50b0e2e13a922d1fe946f2d14681c4efc832ca79dd94cedf71dfa7bc0",
        ],
        "summary": "febd4c176d416c985ccfc76758d5c875cf9eb01d108b062be4f55e6966fb6dc2",
    },
}


@pytest.mark.parametrize("method", sorted(ME_GOLDEN))
def test_seeded_me_campaign_matches_golden_digests(campaign_bench, method, tmp_path):
    _common, digests = campaign_bench
    argv = ["run", "--method", method, "--block-set", "observer", "--runs", "2", "--seed", "0"]
    assert cli.main(argv + ["--init-samples", "100", "--evals", "400", "--out", str(tmp_path)]) == 0
    assert digests.campaign_digest(str(tmp_path)) == ME_GOLDEN[method]


def test_corpus_file_matches_its_generator(bench):
    # Rebuilds every section, including the fixed-seed PF harvest.
    corpus, _digests = bench
    try:
        corpus.check(vf, os.path.join(BENCH, "corpus.txt"))
    except SystemExit as exc:
        pytest.fail(str(exc))
