"""Command line interface.

Subcommands:
    run     execute a campaign of search runs and write logs plus summaries
    report  print a campaign summary, or compare sibling campaigns with
            pairwise Fisher exact tests (Bonferroni-adjusted)
    export  decode one stored archive occupant into the shape text format
    replay  re-evaluate a serialized genome and print its result

Any flag may also come from a config file of `key = value` lines (`#` starts
a comment); command line flags override file values.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations

from .blocks import BlockSet
from .campaign import (
    CampaignSummary,
    ExperimentConfig,
    Method,
    export_shape_file,
    run_campaign,
)
from .fitness import FitnessConfig, evaluate
from .genome import DecodeConfig, genome_from_line
from .search import SearchBudget
from .sim import TickConfig
from .stats import bonferroni, fisher_exact_2x2


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_KEYS = {
    "method": str,
    "block_set": str,
    "runs": int,
    "evals": int,
    "init_samples": int,
    "mu": int,
    "lam": int,
    "generations": int,
    "crossover_prob": float,
    "seed": int,
    "log_interval": int,
    "emulate_observer_bug": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "out": str,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxelflight", description="Evolve voxel flying machines in a deterministic piston simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a campaign")
    run.add_argument("--config", help="config file of key = value lines")
    run.add_argument("--method", choices=[m.value for m in Method])
    run.add_argument("--block-set", choices=[b.value for b in BlockSet], dest="block_set")
    run.add_argument("--runs", type=int)
    run.add_argument("--evals", type=int, help="offspring budget (PF derives generations as evals/lambda)")
    run.add_argument("--init-samples", type=int, dest="init_samples")
    run.add_argument("--mu", type=int)
    run.add_argument("--lambda", type=int, dest="lam")
    run.add_argument("--generations", type=int)
    run.add_argument("--crossover-prob", type=float, dest="crossover_prob")
    run.add_argument("--seed", type=int)
    run.add_argument("--log-interval", type=int, dest="log_interval")
    run.add_argument("--no-observer-bug", action="store_false", dest="emulate_observer_bug", default=None)
    run.add_argument("--out")

    report = sub.add_parser("report", help="summarize a campaign directory (or compare its subdirectories)")
    report.add_argument("--in", dest="in_dir", required=True)

    export = sub.add_parser("export", help="export one archive occupant as shape text")
    export.add_argument("--in", dest="in_dir", required=True, help="a single run directory (contains archive/)")
    export.add_argument("--bin", type=int, required=True)
    export.add_argument("--out", required=True)
    export.add_argument("--method", choices=[m.value for m in Method], default=Method.ME_PO.value)
    export.add_argument("--block-set", choices=[b.value for b in BlockSet], dest="block_set", default=BlockSet.OBSERVER.value)
    export.add_argument("--no-observer-bug", action="store_false", dest="emulate_observer_bug", default=True)

    replay = sub.add_parser("replay", help="re-evaluate a serialized genome")
    replay.add_argument("--genome", required=True, help="file holding one genome line")
    replay.add_argument("--block-set", choices=[b.value for b in BlockSet], dest="block_set", default=BlockSet.OBSERVER.value)
    replay.add_argument("--no-observer-bug", action="store_false", dest="emulate_observer_bug", default=True)
    return parser


def _resolved(args: argparse.Namespace) -> dict:
    """Merge defaults, config file values, and explicit flags (flags win)."""
    resolved: dict = {
        "method": Method.ME_PO.value,
        "block_set": BlockSet.OBSERVER.value,
        "runs": 1,
        "evals": 60000,
        "init_samples": 100,
        "mu": 20,
        "lam": 20,
        "generations": None,
        "crossover_prob": 0.5,
        "seed": 0,
        "log_interval": 100,
        "emulate_observer_bug": True,
        "out": "out",
    }
    if getattr(args, "config", None):
        file_values = parse_config_file(args.config)
        for key, raw in file_values.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            resolved[key] = _CONFIG_KEYS[key](raw)
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _experiment_config(values: dict) -> ExperimentConfig:
    method = Method(values["method"])
    generations = values["generations"]
    if generations is None:
        generations = max(1, round(values["evals"] / values["lam"]))
    budget = SearchBudget(
        init_samples=values["init_samples"],
        offspring=values["evals"],
        mu=values["mu"],
        lam=values["lam"],
        generations=generations,
        crossover_prob=values["crossover_prob"],
    )
    return ExperimentConfig(
        method=method,
        block_set=BlockSet(values["block_set"]),
        runs=values["runs"],
        seed_base=values["seed"],
        budget=budget,
        log_interval=values["log_interval"],
        emulate_observer_bug=values["emulate_observer_bug"],
        out_dir=values["out"],
    )


def _print_summary(summary: CampaignSummary) -> None:
    print(f"method={summary.method} block_set={summary.block_set} runs={summary.runs}")
    print(f"successful runs: {summary.success_count} ({summary.success_pct:.2f}%)")
    print(f"distinct directions per run: avg {summary.avg_distinct_directions:.2f}, max {summary.max_distinct_directions}")
    for name, count in summary.direction_run_counts.items():
        print(f"  {name:<5} {count} run(s)")
    print("first flights (rounded up to log interval):", ", ".join(str(v) for v in summary.first_flight_evals))


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _experiment_config(_resolved(args))
    summary = run_campaign(cfg)
    _print_summary(summary)
    print(f"outputs written to {cfg.out_dir}")
    return 0


def _read_summary_csv(path: str) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        row = fh.readline().strip().split(",")
    return dict(zip(header, row))


def _cmd_report(args: argparse.Namespace) -> int:
    summary_path = os.path.join(args.in_dir, "summary.csv")
    if os.path.exists(summary_path):
        values = _read_summary_csv(summary_path)
        for key, value in values.items():
            print(f"{key}: {value}")
        return 0
    # Directory of campaigns: compare all pairs on success counts.
    rows = []
    for name in sorted(os.listdir(args.in_dir)):
        sub = os.path.join(args.in_dir, name, "summary.csv")
        if os.path.exists(sub):
            rows.append((name, _read_summary_csv(sub)))
    if not rows:
        print(f"no summary.csv found under {args.in_dir}", file=sys.stderr)
        return 1
    for name, values in rows:
        print(f"{name}: method={values['method']} successes={values['success_count']}/{values['runs']}")
    comparisons = list(combinations(rows, 2))
    if comparisons:
        print("\npairwise Fisher exact tests on success counts:")
        out_lines = ["a,b,p_raw,p_bonferroni"]
        for (name_a, va), (name_b, vb) in comparisons:
            sa, ra = int(va["success_count"]), int(va["runs"])
            sb, rb = int(vb["success_count"]), int(vb["runs"])
            p = fisher_exact_2x2(sa, ra - sa, sb, rb - sb)
            p_adj = bonferroni(p, len(comparisons))
            print(f"  {name_a} vs {name_b}: p={p:.6g} (Bonferroni x{len(comparisons)}: {p_adj:.6g})")
            out_lines.append(f"{name_a},{name_b},{p!r},{p_adj!r}")
        with open(os.path.join(args.in_dir, "comparisons.csv"), "w") as fh:
            fh.write("\n".join(out_lines) + "\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        method=Method(args.method),
        block_set=BlockSet(args.block_set),
        runs=1,
        emulate_observer_bug=args.emulate_observer_bug,
    )
    export_shape_file(cfg, os.path.join(args.in_dir, "archive"), args.bin, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.genome) as fh:
        genome = genome_from_line(fh.read())
    decode_cfg = DecodeConfig(block_set=BlockSet(args.block_set))
    tick_cfg = TickConfig(emulate_observer_bug=args.emulate_observer_bug)
    result = evaluate(genome, decode_cfg, tick_cfg, FitnessConfig())
    print("fitness,flew,direction,leftover_count,ticks_used")
    print(result.csv_row())
    if result.com_trajectory:
        print("com trajectory:")
        for second, com in enumerate(result.com_trajectory):
            print(f"  t={second}s com=({com[0]:.4f}, {com[1]:.4f}, {com[2]:.4f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "export": _cmd_export,
        "replay": _cmd_replay,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
