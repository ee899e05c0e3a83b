"""Golden lock: the benchmark's evaluation corpus still gives its recorded results.

`bench/corpus.txt` holds 724 genomes: the reference flyer and its rotations,
busy oscillators from a fixed-seed PF run, and 600 random genomes of seed 0.
`bench/golden.json` records the digest of each one's evaluation result
(fitness, flight, direction, trajectory, leftover blocks, ticks and exit log).
A change to decoding, placement, the simulator or scoring that moves a single
result, by one bit, fails here. The bench files are read, never written.
"""

import json
import os

import pytest

import voxelflight as vf

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
