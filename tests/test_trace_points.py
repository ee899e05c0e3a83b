"""The benchmark's trace points still exist and still see calls.

`bench/tracer.py` patches functions where the program looks them up and
wraps `run_until` with a fixed positional signature. A renamed function, a
moved call or a keyword call into `run_until` breaks `bench/run.py --trace 1`
without failing any other test. Here each workload's tracer is installed
around a tiny in-process run of that workload, and every layer the workload
must use has to record calls. The bench files are read, never written.
"""

import os

import pytest

import voxelflight as vf
from voxelflight import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's corpus module and tracer, imported from `bench/`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        import corpus
        import tracer
    return corpus, tracer


def run_tiny(workload, corpus, out):
    if workload == "eval-corpus":
        cfgs = corpus.configs(vf)
        for genome in corpus.flyer_genomes(vf):
            vf.evaluate(genome, *cfgs)
        return
    if workload == "campaign-me-po":
        budget = ["--method", "me-po", "--init-samples", "10", "--evals", "10"]
    else:
        budget = ["--method", "pf", "--mu", "4", "--lambda", "4", "--generations", "3"]
    assert cli.main(["run", "--block-set", "observer", "--runs", "1", "--seed", "0", "--out", str(out)] + budget) == 0


@pytest.mark.parametrize("workload", ["eval-corpus", "campaign-me-po", "campaign-pf"])
def test_every_expected_layer_records_calls(bench, workload, tmp_path):
    corpus, tracer = bench
    trace = tracer.Tracer()
    try:
        trace.install(workload)
        run_tiny(workload, corpus, tmp_path / "campaign")
    finally:
        trace.uninstall()
    trace.check_expected(workload)
