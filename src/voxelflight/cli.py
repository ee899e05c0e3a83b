"""Command line interface.

Subcommands:
    run     execute a campaign of search runs and write logs plus summaries
    report  print a campaign from its summary CSVs (what `run` prints), or
            compare sibling campaigns with pairwise Fisher exact tests
            (Bonferroni-adjusted)
    export  decode one stored archive occupant of a run directory (with its manifest's settings) into the shape text format
    replay  re-evaluate a serialized genome and print its result

Any `run` flag may also come from a config file of `key = value` lines (`#`
at the start of a line or after whitespace starts a comment), keyed by the
flag's destination; a key may appear once. Command line flags override file
values. The `run` parser is the only table of these settings and their
defaults; `ExperimentConfig` and `DecodeConfig`'s block set have none. The
config reader and the `config.txt` echo are derived from it, and `replay`
takes its two decode flags from the same definitions.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import combinations

from .blocks import BlockSet, TickConfig
from .campaign import (
    ExperimentConfig,
    Method,
    export_shape_file,
    run_campaign,
)
from .fitness import FitnessConfig, evaluate
from .genome import DecodeConfig, genome_from_line
from .search import SearchBudget
from .stats import bonferroni, fisher_exact_2x2


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh.read().split("\n"), start=1):  # text mode reads every line end as "\n"
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()  # `res#2` keeps its `#`
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            values[key] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


# The decode settings, which `run` and `replay` both take: each flag is
# defined once, so an archived genome replays as its run decoded it.
def _add_block_set(parser: argparse.ArgumentParser) -> argparse.Action:
    return parser.add_argument("--block-set", choices=[b.value for b in BlockSet], dest="block_set", default=BlockSet.OBSERVER.value)


def _add_observer_bug(parser: argparse.ArgumentParser) -> argparse.Action:
    return parser.add_argument("--no-observer-bug", action="store_false", dest="emulate_observer_bug", default=True)


def _decode_config(values: dict) -> DecodeConfig:
    return DecodeConfig(BlockSet(values["block_set"]), values["emulate_observer_bug"])


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser, list[argparse.Action]]:
    """The parser, its `run` subparser, and the `run` settings: the one table of their keys, types, choices and defaults."""
    parser = argparse.ArgumentParser(prog="voxelflight", description="Evolve voxel flying machines in a deterministic piston simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a campaign")
    settings = [
        run.add_argument("--config", help="config file of key = value lines"),
        run.add_argument("--method", choices=[m.value for m in Method], default=Method.ME_PO.value),
        _add_block_set(run),
        run.add_argument("--runs", type=int, default=1),
        run.add_argument("--evals", type=int, default=60000, help="offspring budget (PF derives generations as evals/lambda)"),
        run.add_argument("--init-samples", type=int, dest="init_samples", default=100),
        run.add_argument("--mu", type=int, default=20),
        run.add_argument("--lambda", type=int, dest="lam", default=20),
        run.add_argument("--generations", type=int),
        run.add_argument("--crossover-prob", type=float, dest="crossover_prob", default=0.5),
        run.add_argument("--seed", type=int, default=0),
        run.add_argument("--log-interval", type=int, dest="log_interval", default=100),
        _add_observer_bug(run),
        run.add_argument("--out", default="out"),
    ]

    report = sub.add_parser("report", help="summarize a campaign directory (or compare its subdirectories)")
    report.add_argument("--in", dest="in_dir", required=True)

    export = sub.add_parser("export", help="export one archive occupant as shape text")
    export.add_argument("--in", dest="in_dir", required=True, help="a single run directory (contains archive/)")
    export.add_argument("--bin", type=int, required=True)
    export.add_argument("--out", required=True)

    replay = sub.add_parser("replay", help="re-evaluate a serialized genome")
    replay.add_argument("--genome", required=True, help="file holding one genome line")
    _add_block_set(replay)
    _add_observer_bug(replay)
    return parser, run, settings


def _config_defaults(path: str, settings: list[argparse.Action]) -> dict:
    """A config file's values, converted and checked by the `run` flags of the same destination."""
    actions = {action.dest: action for action in settings if action.dest != "config"}
    values = {}
    for key, raw in parse_config_file(path).items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{path}: unknown config key {key!r}")
        try:
            value = _BOOLEANS[raw.lower()] if isinstance(action.default, bool) else (action.type or str)(raw)
        except (KeyError, ValueError):
            raise ValueError(f"{path}: {key}: invalid value {raw!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{path}: {key}: invalid choice {raw!r} (choose from {', '.join(action.choices)})")
        values[key] = value
    return values


def _experiment_config(values: dict) -> ExperimentConfig:
    method = Method(values["method"])
    generations = values["generations"]
    if generations is None:
        if values["lam"] < 1:  # checked before it divides
            raise ValueError("lam (--lambda) must be >= 1")
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
        decode=_decode_config(values),
        runs=values["runs"],
        seed_base=values["seed"],
        budget=budget,
        log_interval=values["log_interval"],
        out_dir=values["out"],
    )


def _cmd_run(args: argparse.Namespace, settings: list[argparse.Action]) -> int:
    """Run a campaign and echo its settings to `config.txt`, so that `run --config` repeats it."""
    cfg = _experiment_config(vars(args))
    args.generations = cfg.budget.generations
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config.txt"), "w") as fh:
        for action in settings:
            if action.dest not in ("config", "out"):
                value = getattr(args, action.dest)
                fh.write(f"{action.dest} = {str(value).lower() if isinstance(value, bool) else value}\n")
    run_campaign(cfg)
    _print_campaign(cfg.out_dir)
    print(f"outputs written to {cfg.out_dir}")
    return 0


def _read_csv(path: str, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """A CSV file's rows by column name; a missing column, or a row with more or
    fewer values than the header has columns, is a `ValueError` naming the file."""
    with open(path) as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()] or [[]]
    missing = [key for key in columns if key not in header]
    if missing:
        raise ValueError(f"{path}: missing column {', '.join(missing)}")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {lineno} has {len(row)} values for {len(header)} columns")
    return [dict(zip(header, row)) for row in rows]


def _read_summary_csv(path: str) -> dict[str, str]:
    """The one `summary.csv` row by column name; besides `_read_csv`'s checks,
    a count that is not a whole number, no runs, or more successes than runs
    is a `ValueError` naming the file."""
    rows = _read_csv(path, ("method", "runs", "success_count"))
    if len(rows) != 1:
        raise ValueError(f"{path}: {len(rows)} rows, expected 1")
    values = rows[0]
    for key in ("runs", "success_count"):
        if not values[key].isdigit():
            raise ValueError(f"{path}: {key} {values[key]!r} is not a count")
    runs, successes = int(values["runs"]), int(values["success_count"])
    if runs == 0:
        raise ValueError(f"{path}: runs is 0")
    if successes > runs:
        raise ValueError(f"{path}: success_count {successes} exceeds runs {runs}")
    return values


def _print_campaign(campaign_dir: str) -> None:
    """Print a campaign from its three summary CSVs, all read and checked first:
    `summary.csv` as `key: value` lines, the runs with a flight per direction,
    and each run's first flight as its first `log.csv` row at or after it."""
    summary = _read_summary_csv(os.path.join(campaign_dir, "summary.csv"))
    directions = _read_csv(os.path.join(campaign_dir, "directions.csv"), ("direction", "runs_with_flight"))
    flights = _read_csv(os.path.join(campaign_dir, "first_flights.csv"), ("first_flight_rounded",))
    for key, value in summary.items():
        print(f"{key}: {value}")
    print("runs with a flight, per direction:")
    for row in directions:
        print(f"  {row['direction']:<5} {row['runs_with_flight']} run(s)")
    print("first flights (first log.csv row at or after the flight):", ", ".join(row["first_flight_rounded"] for row in flights))


def _cmd_report(args: argparse.Namespace) -> int:
    if os.path.exists(os.path.join(args.in_dir, "summary.csv")):
        _print_campaign(args.in_dir)
        return 0
    # Directory of campaigns: compare all pairs on success counts.
    rows = []
    for name in sorted(os.listdir(args.in_dir)):
        sub = os.path.join(args.in_dir, name, "summary.csv")
        if os.path.exists(sub):
            rows.append((name, _read_summary_csv(sub)))
    if not rows:
        raise ValueError(f"no summary.csv found under {args.in_dir}")
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
    export_shape_file(args.in_dir, args.bin, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.genome) as fh:
        genome = genome_from_line(fh.read())
    result = evaluate(genome, _decode_config(vars(args)), TickConfig(), FitnessConfig())
    print("fitness,flew,direction,leftover_count,ticks_used")
    print(result.csv_row())
    if result.com_trajectory:
        print("com trajectory:")
        for second, com in enumerate(result.com_trajectory):
            print(f"  t={second}s com=({com[0]:.4f}, {com[1]:.4f}, {com[2]:.4f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser, run, settings = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.config:
            # File values become the flags' defaults; the second parse lets explicit flags win.
            run.set_defaults(**_config_defaults(args.config, settings))
            args = parser.parse_args(argv)
        return _cmd_run(args, settings)
    handlers = {
        "report": _cmd_report,
        "export": _cmd_export,
        "replay": _cmd_replay,
    }
    return handlers[args.command](args)


def console_main(argv: list[str] | None = None) -> int:
    """The `voxelflight` command: `main`, with bad input reported on one line and exit code 2."""
    try:
        return main(argv)
    except (ValueError, OSError) as exc:
        print(f"voxelflight: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(console_main())
