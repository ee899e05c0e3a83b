"""Paths, workload definitions and the voxelflight import shared by the bench scripts."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
# Scratch space for campaign outputs, trace spans and digest files.
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 0
WORKLOADS = ("eval-corpus", "campaign-me-po", "campaign-pf")

# Campaigns: every run makes exactly EVALS_PER_RUN evaluations under both
# methods. The CLI's own derivation (generations = evals / lambda) would give
# ME.PO init_samples + evals but PF mu + lambda * generations, which differ,
# so both budgets are spelled out here instead.
EVALS_PER_RUN = 500
ME_PO_BUDGET = ["--init-samples", "100", "--evals", str(EVALS_PER_RUN - 100)]
PF_BUDGET = ["--mu", "20", "--lambda", "20", "--generations", str((EVALS_PER_RUN - 20) // 20)]
assert 20 + 20 * ((EVALS_PER_RUN - 20) // 20) == EVALS_PER_RUN

# Each campaign repetition runs a fixed panel of runs, identical for every
# benchmark seed, plus a few runs seeded from the benchmark seed. Cost per
# evaluation differs by a factor of ~2.5 between PF seeds (some converge on
# oscillators that never stop), so the panel keeps the timing comparable
# across seeds while the seeded runs keep the inputs seed-dependent.
PANEL_SEED = 1000
PANEL_RUNS = 14
SEEDED_RUNS = 2

# Columns of runs/run_NNN/log.csv that the digests cover, selected by name.
LOG_COLUMNS = (
    "evaluations",
    "occupied_bins",
    "best_fitness",
    "flights",
    "first_flight_north",
    "first_flight_south",
    "first_flight_east",
    "first_flight_west",
    "first_flight_up",
    "first_flight_down",
)
SUMMARY_COLUMNS = {
    "summary.csv": ("method", "block_set", "runs", "success_count", "success_pct", "avg_distinct_directions", "max_distinct_directions"),
    "directions.csv": ("direction", "runs_with_flight", "pct"),
    "first_flights.csv": ("run", "seed", "first_flight_rounded", "first_flight_exact", "best_fitness"),
}


def campaign_args(workload: str) -> tuple[str, list[str]]:
    if workload == "campaign-me-po":
        return "me-po", ME_PO_BUDGET
    if workload == "campaign-pf":
        return "pf", PF_BUDGET
    raise ValueError(f"not a campaign workload: {workload}")


def campaign_parts(seed: int) -> list[tuple[str, int, int]]:
    """(name, seed base, runs) of the campaigns one repetition runs."""
    return [("panel", PANEL_SEED, PANEL_RUNS), ("seeded", seed * SEEDED_RUNS, SEEDED_RUNS)]


def import_voxelflight():
    """Import voxelflight from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "voxelflight")):
        raise SystemExit(f"bench: no voxelflight sources under {SRC}")
    sys.path.insert(0, SRC)
    import voxelflight

    if not os.path.abspath(voxelflight.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported voxelflight from {voxelflight.__file__}, expected {SRC}")
    return voxelflight
