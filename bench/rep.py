"""One benchmark repetition, run by bench/run.py in a fresh interpreter.

Sets up (imports voxelflight from ./src, loads its inputs, warms up), runs
the workload's measured region once, checks and digests the outputs, and
prints one JSON record as the last line of standard output. Untraced
repetitions time the reference kernel of bench/hostspeed.py around set-up
and between slices of the measured region, and report corrected times too.
"""

from time import perf_counter

from hostspeed import REFERENCE_S, HostSpeed, cpu_seconds, kernel_call

SETUP_PROBES = 3  # reference kernel calls just before and just after set-up
BEFORE_SETUP = [kernel_call() for _ in range(SETUP_PROBES)]
START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy  # noqa: E402

import corpus  # noqa: E402
import digests  # noqa: E402
from common import EVALS_PER_RUN, OUT, WORKLOADS, campaign_args, campaign_parts, import_voxelflight  # noqa: E402
from tracer import Tracer  # noqa: E402


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


# -- eval-corpus -----------------------------------------------------------

def setup_corpus(vf, seed: int):
    genomes, fixed_count = corpus.load(vf, seed)
    cfgs = corpus.configs(vf)
    for genome in genomes[:20]:
        vf.evaluate(genome, *cfgs)
    return genomes, fixed_count, cfgs


def run_corpus(vf, state, seed: int, speed: HostSpeed | None) -> dict:
    genomes, fixed_count, cfgs = state
    results, latencies, errors = [], [], 0
    if speed is not None:
        speed.probe()
    cpu0, wall0 = cpu_seconds(), perf_counter()
    for genome in genomes:
        start = perf_counter()
        try:
            result = vf.evaluate(genome, *cfgs)
        except Exception as exc:  # counted and reported; the run goes on
            print(f"evaluate raised: {exc!r}", file=sys.stderr)
            result = None
            errors += 1
        end = perf_counter()
        latencies.append((end, end - start))
        results.append(result)
        if speed is not None:
            speed.maybe_probe()
    wall, cpu = perf_counter() - wall0, cpu_seconds() - cpu0
    rss = peak_rss_mb()
    items = [digests.result_digest(r) if r is not None else "raised" for r in results]
    record = {
        "evals": len(genomes),
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss,
        "ticks": sum(r.ticks_used for r in results if r is not None),
        "lat_ms": [1000.0 * t for _, t in latencies],
        "attempted": len(genomes),
        "failed": errors,
        "digests": {"fixed": items[:fixed_count], f"seed={seed}": items[fixed_count:]},
        # Search and campaign do no work here.
        "layers": {"search.coverage": 0.0, "search.qd_score": 0.0, "campaign.bytes_written": 0},
    }
    if speed is not None:
        speed.probe()
        correct(record, speed, latencies)
    return record


def correct(record: dict, speed: HostSpeed, latencies: list[tuple[float, float]]) -> None:
    """Replace the record's times by the work's own, kernel excluded, and add their host-speed corrections."""
    record.update(speed.totals())
    record["lat_p50_corrected_ms"] = 1000.0 * statistics.median(speed.correct(latencies))


# -- campaigns -------------------------------------------------------------

def setup_campaign(vf, workload: str):
    from voxelflight import cli

    os.makedirs(OUT, exist_ok=True)
    method = campaign_args(workload)[0]
    tiny = ["--init-samples", "10", "--evals", "10"] if method == "me-po" else ["--mu", "4", "--lambda", "4", "--generations", "3"]
    work = tempfile.mkdtemp(prefix="warmup-", dir=OUT)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", "--method", method, "--block-set", "observer", "--runs", "1", "--seed", "0", "--out", work] + tiny)
    finally:
        shutil.rmtree(work)
    return cli


class SimTimer:
    """Times each simulation call (`run_until` as evaluate_shape looks it up), sums its ticks and probes host speed between calls."""

    def __init__(self, fitness, speed: HostSpeed):
        self.fitness = fitness
        self.real = fitness.run_until
        self.speed = speed
        self.latencies: list[tuple[float, float]] = []  # (end, seconds) of each call
        self.ticks = 0

    def __enter__(self):
        real, latencies, speed = self.real, self.latencies, self.speed

        def run_until(*args, **kwargs):
            start = perf_counter()
            world = real(*args, **kwargs)
            end = perf_counter()
            latencies.append((end, end - start))
            self.ticks += world.tick
            speed.maybe_probe()
            return world

        self.fitness.run_until = run_until
        return self

    def __exit__(self, *exc):
        self.fitness.run_until = self.real


def _runs_completed(part_dir: str, expected_runs: int) -> int:
    """Runs whose log.csv ends at exactly EVALS_PER_RUN evaluations."""
    runs_dir = os.path.join(part_dir, "runs")
    names = sorted(os.listdir(runs_dir))
    if len(names) != expected_runs:
        raise RuntimeError(f"{part_dir}: {len(names)} run directories, expected {expected_runs}")
    good = 0
    for name in names:
        with open(os.path.join(runs_dir, name, "log.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        total = int(rows[-1][rows[0].index("evaluations")])
        if total == EVALS_PER_RUN:
            good += 1
        else:
            print(f"{part_dir}/{name}: {total} evaluations, expected {EVALS_PER_RUN}", file=sys.stderr)
    return good


def _reverify(vf, run_dir: str) -> bool:
    """Re-evaluate every stored genome; its fitness must repeat bit for bit."""
    cfgs = corpus.configs(vf)
    ok = True
    for _index, stored, genes in digests.stored_members(run_dir):
        fresh = vf.evaluate(numpy.asarray(genes), *cfgs).fitness
        if repr(fresh) != repr(stored):
            print(f"{run_dir}: stored fitness {stored!r} re-evaluates to {fresh!r}", file=sys.stderr)
            ok = False
    return ok


def _quality(vf, run_dir: str) -> tuple[float, float]:
    """(coverage, QD-score) of a run on the piston-orientation grid; PF populations are binned the same way."""
    layout = vf.ArchiveLayout(vf.Characterization.PISTON_ORIENTATION)
    decode_cfg = corpus.configs(vf)[0]
    best: dict[int, float] = {}
    for _index, fitness, genes in digests.stored_members(run_dir):
        index = layout.bin_index(layout.descriptor(vf.decode(numpy.asarray(genes), decode_cfg)))
        best[index] = max(fitness, best.get(index, fitness))
    return len(best) / layout.total_bins, sum(best.values())


def run_campaign(cli, workload: str, seed: int, traced: bool):
    """The measured region: both campaigns of one repetition, written under a fresh directory.

    Latencies are kept for the panel's simulation calls only. The panel's
    inputs are the same for every seed; the seeded runs converge on different
    oscillators, and how many of their calls fall on either side of the
    panel's median moved the median of all calls by 7% (IQR over median,
    seeds 1-6 of campaign-pf, timed interleaved on one host).
    """
    from voxelflight import fitness

    method, budget = campaign_args(workload)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    failed_parts = []
    speed = None if traced else HostSpeed()
    timer = contextlib.nullcontext() if traced else SimTimer(fitness, speed)
    if speed is not None:
        speed.probe()
    cpu0, wall0 = cpu_seconds(), perf_counter()
    with timer, contextlib.redirect_stdout(io.StringIO()):
        for part, base, runs in campaign_parts(seed):
            argv = ["run", "--method", method, "--block-set", "observer", "--runs", str(runs), "--seed", str(base)]
            try:
                code = cli.main(argv + ["--out", os.path.join(work, part)] + budget)
            except Exception as exc:  # counted and reported; the other part still runs
                print(f"{part} campaign raised: {exc!r}", file=sys.stderr)
                code = -1
            if code != 0:
                failed_parts.append(part)
            if part == "panel" and not traced:
                panel_calls = len(timer.latencies)
    record = {"wall_s": perf_counter() - wall0, "cpu_s": cpu_seconds() - cpu0, "rss_mb": peak_rss_mb()}
    if not traced:
        speed.probe()
        record["ticks"] = timer.ticks
        panel = timer.latencies[:panel_calls]
        record["lat_ms"] = [1000.0 * t for _, t in panel]
        correct(record, speed, panel)
    return record, work, failed_parts


def check_campaign(vf, record: dict, work: str, failed_parts: list, seed: int, traced: bool, verify: bool) -> None:
    """Count evaluations and failed runs, digest the outputs and, when traced, add quality and size metrics."""
    parts = campaign_parts(seed)
    failed, evals, part_digests, coverage, qd = 0, 0, {}, [], []
    for part, _base, runs in parts:
        if part in failed_parts:
            failed += runs
            continue
        part_dir = os.path.join(work, part)
        completed = _runs_completed(part_dir, runs)
        failed += runs - completed
        evals += completed * EVALS_PER_RUN
        part_digests["panel" if part == "panel" else f"seed={seed}"] = digests.campaign_digest(part_dir)
        for name in sorted(os.listdir(os.path.join(part_dir, "runs"))):
            run_dir = os.path.join(part_dir, "runs", name)
            if verify and not _reverify(vf, run_dir):
                failed += 1
            if traced:
                c, q = _quality(vf, run_dir)
                coverage.append(c)
                qd.append(q)
    layers = {}
    if traced:
        layers["search.coverage"] = sum(coverage) / len(coverage)
        layers["search.qd_score"] = sum(qd) / len(qd)
        layers["campaign.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(work) for f in files
        )
    shutil.rmtree(work)
    record.update(
        evals=evals,
        attempted=sum(runs for _, _, runs in parts),
        failed=failed,
        digests=part_digests,
        layers=layers,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verify", type=int, choices=(0, 1), default=0, help="re-evaluate stored campaign genomes")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    parser.add_argument("--spans", help="write trace spans to this file")
    args = parser.parse_args(argv)

    vf = import_voxelflight()
    if args.workload == "eval-corpus":
        state = setup_corpus(vf, args.seed)
    else:
        state = setup_campaign(vf, args.workload)
    setup_s = perf_counter() - START
    after_setup = [kernel_call() for _ in range(SETUP_PROBES)]
    kernel_mean = statistics.mean(wall1 - wall0 for wall0, wall1, _, _ in BEFORE_SETUP + after_setup)
    setup = {"setup_s": setup_s, "setup_corrected_s": setup_s * REFERENCE_S / kernel_mean}
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__, "voxelflight": vf.__version__}
    if args.setup_only:
        print(json.dumps({**setup, "versions": versions}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(args.workload)
    if args.workload == "eval-corpus":
        record = run_corpus(vf, state, args.seed, None if tracer else HostSpeed())
    else:
        record, work, failed_parts = run_campaign(state, args.workload, args.seed, tracer is not None)
    if tracer is not None:
        tracer.uninstall()
        tracer.check_expected(args.workload)
    if args.workload != "eval-corpus":
        check_campaign(vf, record, work, failed_parts, args.seed, tracer is not None, bool(args.verify))
    if tracer is not None:
        record["layers"].update(tracer.layer_metrics())
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.spans, fh)
    record.update(setup, versions=versions, traced=bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
