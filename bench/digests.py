"""Result digests: SHA-256 over canonical text of evaluation results and campaign outputs.

Only result content is hashed. Campaign digests never read config.txt, and
select CSV columns by header name, so a later change that adds a column or a
config key does not change a digest; a changed value does.
"""

from __future__ import annotations

import csv
import hashlib
import os

from common import LOG_COLUMNS, SUMMARY_COLUMNS


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_text(result) -> str:
    """fitness repr, flew, direction, trajectory, leftover, ticks and exit log of one EvaluationResult."""
    direction = result.direction.name if result.direction is not None else ""
    trajectory = ";".join(",".join(repr(float(c)) for c in com) for com in result.com_trajectory)
    exits = ";".join(f"{int(p[0])},{int(p[1])},{int(p[2])}@{int(tick)}" for p, tick in result.exit_log)
    return "|".join([
        repr(float(result.fitness)),
        str(bool(result.flew)),
        direction,
        trajectory,
        str(int(result.leftover_count)),
        str(int(result.ticks_used)),
        exits,
    ])


def result_digest(result) -> str:
    return sha(result_text(result))[:16]


def _csv_columns(path: str, columns: tuple[str, ...]) -> str:
    """The named columns of a CSV file, in the given order; fails if one is missing."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    missing = [c for c in columns if c not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    index = [header.index(c) for c in columns]
    return "\n".join(",".join(row[i] for i in index) for row in rows)


def stored_members(run_dir: str):
    """(bin index, or None for a PF population member, stored fitness, genome values) of one run."""
    archive = os.path.join(run_dir, "archive")
    if os.path.isdir(archive):
        with open(os.path.join(archive, "manifest.txt")) as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] == "bin":
                    with open(os.path.join(archive, "bins", f"{fields[1]}.genome")) as gh:
                        yield int(fields[1]), float(fields[2]), [float(tok) for tok in gh.read().split()]
    else:
        with open(os.path.join(run_dir, "population.txt")) as fh:
            for line in fh:
                if line.strip() and not line.startswith("#"):
                    fitness, *genes = line.split()
                    yield None, float(fitness), [float(tok) for tok in genes]


def run_digest(run_dir: str) -> str:
    """One run: archive bins, fitnesses and genomes (or the PF population) plus log.csv columns."""
    parts = ["log", _csv_columns(os.path.join(run_dir, "log.csv"), LOG_COLUMNS)]
    for index, fitness, genes in stored_members(run_dir):
        parts.append(f"{index} {fitness!r} {' '.join(map(repr, genes))}")
    return sha("\n".join(parts))


def campaign_digest(out_dir: str) -> dict:
    """{"runs": [one digest per run], "summary": digest of the three summary CSVs}."""
    runs_dir = os.path.join(out_dir, "runs")
    runs = [run_digest(os.path.join(runs_dir, name)) for name in sorted(os.listdir(runs_dir))]
    summary = "\n".join(name + "\n" + _csv_columns(os.path.join(out_dir, name), cols) for name, cols in SUMMARY_COLUMNS.items())
    return {"runs": runs, "summary": sha(summary)}
