"""voxelflight benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload eval-corpus --seed 0 --seconds 20 --trace 0

Repetitions run one at a time, each in a fresh interpreter (bench/rep.py),
until their measured time adds up to --seconds. With --trace 0 every
repetition is untraced and the end-to-end metrics are reported; with
--trace 1 untraced and traced repetitions alternate and the per-layer
metrics are reported, including the tracing overhead. Every repetition's
outputs are digested and checked against bench/golden.json and against the
other repetitions; a mismatch makes the run fail (exit code 1).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}.
Metric names and units come from BENCHMARK.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from common import BENCH, DEFAULT_SEED, OUT, ROOT, SRC, WORKLOADS
from hostspeed import REFERENCE_S

GOLDEN_PATH = os.path.join(BENCH, "golden.json")
DEADLINE_S = 170  # every repetition ends, or is killed, within this many seconds of start
SETUP_SAMPLES = 7
# Measured and printed, but not BENCHMARK.json metrics. eval_ms_p99 (not
# corrected for host speed) is too unsteady across seeds for a regression bound: on campaign-pf the top 1% of
# simulation calls straddles the 200-tick oscillators, whose number depends on
# the seeded runs. The *_raw values are the timed metrics before host-speed
# correction (bench/hostspeed.py), and host_slowdown is the mean reference
# kernel time over its nominal time.
TEXT_ONLY = {
    "eval_ms_p99": "ms",
    "evals_per_s_raw": "1/s",
    "cpu_ms_per_eval_raw": "ms",
    "eval_ms_p50_raw": "ms",
    "sim_ticks_per_s_raw": "1/s",
    "setup_s_raw": "s",
    "host_slowdown": "ratio",
}


class RepFailed(RuntimeError):
    """A repetition exited non-zero or printed no record."""


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline

    def spawn(self, script: str, *args: str) -> str:
        """Run a bench script to completion; returns the last line of its standard output."""
        cmd = [sys.executable, os.path.join(BENCH, script), *args]
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise RepFailed("out of time before starting a repetition")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RepFailed(f"{script} did not finish within {timeout:.0f} s") from None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RepFailed(f"{script} {' '.join(args)}: exit code {proc.returncode}")
        return lines[-1]

    def rep(self, traced: bool, verify: bool = False, setup_only: bool = False, spans: str | None = None) -> dict:
        args = ["--workload", self.workload, "--seed", str(self.seed), "--trace", str(int(traced)), "--verify", str(int(verify))]
        if setup_only:
            args.append("--setup-only")
        if spans:
            args += ["--spans", spans]
        line = self.spawn("rep.py", *args)
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            raise RepFailed(f"rep.py {' '.join(args)}: no JSON record") from None


def mismatches(value, reference) -> int:
    """Items of a digest entry (results, or campaign runs) that differ from the reference."""
    if isinstance(reference, list):
        return sum(a != b for a, b in zip(value, reference)) + abs(len(value) - len(reference))
    runs = mismatches(value["runs"], reference["runs"])
    if value["summary"] != reference["summary"]:
        runs = max(runs, len(reference["runs"]))
    return runs


def check_digests(reps: list[dict], golden: dict) -> list[int]:
    """Digest mismatches per repetition, against the golden entry or else the first repetition."""
    first = reps[0]["digests"]
    out = []
    for rep in reps:
        bad = 0
        for key, value in rep["digests"].items():
            reference = golden.get(key, first.get(key))
            if reference is not None:
                bad += mismatches(value, reference)
        out.append(bad)
    return out


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end(reps: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """(metric values, sample counts) from untraced repetitions.

    Timed metrics are corrected for host speed (bench/hostspeed.py). Rates are
    totals over all repetitions' measured time, and eval_ms_p50 is the mean of
    the repetitions' median latencies.
    """
    evals = sum(r["evals"] for r in reps)
    wall = sum(r["wall_corrected_s"] for r in reps)
    raw_wall = sum(r["wall_s"] for r in reps)
    ticks = sum(r["ticks"] for r in reps)
    latencies = sorted(t for r in reps for t in r["lat_ms"])
    values = {
        "evals_per_s": evals / wall,
        "cpu_ms_per_eval": 1000.0 * sum(r["cpu_corrected_s"] for r in reps) / evals,
        "eval_ms_p50": statistics.mean(r["lat_p50_corrected_ms"] for r in reps),
        "eval_ms_p99": quantile(latencies, 0.99),
        "sim_ticks_per_s": ticks / wall,
        "setup_s": statistics.median(s["setup_corrected_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "evals_per_s_raw": evals / raw_wall,
        "cpu_ms_per_eval_raw": 1000.0 * sum(r["cpu_s"] for r in reps) / evals,
        "eval_ms_p50_raw": statistics.mean(statistics.median(r["lat_ms"]) for r in reps),
        "sim_ticks_per_s_raw": ticks / raw_wall,
        "setup_s_raw": statistics.median(s["setup_s"] for s in setups),
        "host_slowdown": statistics.mean(r["kernel_ms_mean"] for r in reps) / (1000.0 * REFERENCE_S),
    }
    samples = {name: len(reps) for name in values}
    samples.update(eval_ms_p50=len(latencies), eval_ms_p99=len(latencies), eval_ms_p50_raw=len(latencies),
                   setup_s=len(setups), setup_s_raw=len(setups), host_slowdown=sum(r["probes"] for r in reps))
    return values, samples


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """(metric values, sample counts) from (untraced, traced) repetition pairs."""
    traced = [t for _, t in pairs]
    values = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
    values["trace.overhead_frac"] = statistics.median(
        1.0 - (t["evals"] / t["wall_s"]) / (u["evals"] / u["wall_s"]) for u, t in pairs
    )
    return values, {name: len(pairs) for name in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's digests in bench/golden.json (only for changes meant to alter results)")
    args = parser.parse_args(argv)
    start = perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not os.path.isdir(os.path.join(SRC, "voxelflight")):
        print(f"bench: no voxelflight sources under {SRC}", file=sys.stderr)
        return 2
    with open(GOLDEN_PATH) as fh:
        golden_all = json.load(fh)
    golden = golden_all.get(args.workload, {})
    context = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "git_commit": git_commit(),
               "loadavg_start": read_loadavg()}
    runner = Runner(args.workload, args.seed, start + DEADLINE_S)
    try:
        if args.workload == "eval-corpus":
            runner.spawn("corpus.py", "--check", os.path.join(BENCH, "corpus.txt"))
        untraced, pairs = [], []
        measured = 0.0
        while True:
            rep = runner.rep(traced=False, verify=not untraced)
            untraced.append(rep)
            if args.trace:
                os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
                spans = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}-rep{len(pairs)}.json")
                pairs.append((rep, runner.rep(traced=True, spans=spans)))
            measured += rep["wall_s"] + (pairs[-1][1]["wall_s"] if args.trace else 0.0)
            if measured >= args.seconds:
                break
        setups = list(untraced)
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(runner.rep(traced=False, setup_only=True))
    except RepFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    reps = untraced + [t for _, t in pairs]
    if any(r["evals"] == 0 for r in reps):
        print("bench: a repetition completed no evaluations", file=sys.stderr)
        return 1
    bad = check_digests(reps, golden)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(min(r["attempted"], r["failed"] + b) for r, b in zip(reps, bad))
    if args.trace:
        values, samples = per_layer(pairs)
        wanted = spec["per_layer"]
    else:
        values, samples = end_to_end(untraced, setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    context.update(untraced[0]["versions"], loadavg_end=read_loadavg(), repetitions=len(untraced),
                   traced_repetitions=len(pairs), wall_s=perf_counter() - start)

    os.makedirs(os.path.join(OUT, "digests"), exist_ok=True)
    with open(os.path.join(OUT, "digests", f"{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(reps[0]["digests"], fh, indent=1, sort_keys=True)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        summary = [{k: v for k, v in r.items() if k not in ("lat_ms", "digests")} for r in reps]
        json.dump({"context": context, "metrics": metrics, "values": values, "samples": samples, "repetitions": summary}, fh, indent=1)
    if args.record_golden:
        if failed:
            print("bench: not recording golden digests from a failing run", file=sys.stderr)
            return 1
        golden_all.setdefault(args.workload, {}).update(reps[0]["digests"])
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden_all, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(untraced)} untraced, {len(pairs)} traced")
    print("context " + json.dumps(context, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']:8s} (n={samples[name]})")
    for name, unit in TEXT_ONLY.items():
        if name in values:
            print(f"  {name:40s} {values[name]:>16.6g} {unit:8s} (n={samples[name]}; not a BENCHMARK.json metric)")
    golden_keys = sorted(k for k in reps[0]["digests"] if k in golden)
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} attempted; golden digests: {', '.join(golden_keys) or 'none for this seed'})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
