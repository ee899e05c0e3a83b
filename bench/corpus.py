"""Generate, load and check the eval-corpus genome file.

The corpus has three sections, evaluated in this order:

* ``flyer``: the reference flying machine and its three rotations about the
  y axis, as genomes that decode to exactly those shapes;
* ``harvest``: busy oscillators (80-200 simulated ticks), the last distinct
  ones a fixed-seed PF run evaluated, so mostly its converged population;
* ``random``: uniform random genomes drawn from ``numpy.random.default_rng(seed)``.

No two genomes decode to the same shape (after the placement-time observer
rewrite), so a result cache has nothing to hit. Genomes are stored as
17-significant-digit lines. Only the random section depends on the seed; the
benchmark rebuilds it for any other seed and takes the other sections from
the checked-in file, after checking that file against this generator.

    python3 bench/corpus.py --seed 0 --out bench/corpus.txt   # regenerate
    python3 bench/corpus.py --check bench/corpus.txt          # verify
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from common import BENCH, DEFAULT_SEED, import_voxelflight

CORPUS_PATH = os.path.join(BENCH, "corpus.txt")
RANDOM_COUNT = 600
HARVEST_SEED = 4007
HARVEST_BUDGET = dict(mu=20, lam=20, generations=49)  # 1,000 evaluations
HARVEST_TICKS = (80, 200)
HARVEST_COUNT = 120
SECTIONS = ("flyer", "harvest", "random")

# The reference flyer (tests/fixtures/reference_flyer.shape); travels east.
REFERENCE_FLYER = """
0 1 0 PISTON EAST
1 1 0 QUARTZ_BLOCK NORTH
2 1 0 SLIME_BLOCK NORTH
0 1 1 REDSTONE_BLOCK NORTH
1 1 1 SLIME_BLOCK NORTH
2 1 1 SLIME_BLOCK NORTH
1 1 2 SLIME_BLOCK NORTH
0 0 0 SLIME_BLOCK NORTH
1 0 0 STICKY_PISTON WEST
2 0 0 SLIME_BLOCK NORTH
1 0 1 OBSERVER SOUTH
1 0 2 SLIME_BLOCK NORTH
0 2 2 QUARTZ_BLOCK NORTH
"""


def configs(vf):
    return vf.DecodeConfig(block_set=vf.BlockSet.OBSERVER), vf.TickConfig(), vf.FitnessConfig()


def shape_key(vf, genome, decode_cfg) -> tuple:
    """The shape evaluation actually places: decoded, then observer-rewritten."""
    return tuple(vf.apply_observer_bug(vf.decode(genome, decode_cfg)))


def _genome_for_shape(vf, shape, cfg):
    genome = np.full(cfg.genome_length, 0.25)
    members = cfg.block_set.members
    by_pos = {p.pos: p for p in shape}
    for i in range(cfg.volume):
        p = by_pos.get(cfg.cell_for_index(i))
        if p is not None:
            genome[3 * i] = 0.9
            genome[3 * i + 1] = (members.index(p.kind) + 0.5) / len(members)
            genome[3 * i + 2] = (vf.ORIENTATION_ORDER.index(p.orient) + 0.5) / 6
    return genome


def _rotate_y(vf, shape):
    """Quarter turn about the vertical axis through the 3x3x3 centre (east -> south)."""
    turn = {
        vf.Orientation.EAST: vf.Orientation.SOUTH,
        vf.Orientation.SOUTH: vf.Orientation.WEST,
        vf.Orientation.WEST: vf.Orientation.NORTH,
        vf.Orientation.NORTH: vf.Orientation.EAST,
        vf.Orientation.UP: vf.Orientation.UP,
        vf.Orientation.DOWN: vf.Orientation.DOWN,
    }
    return [vf.BlockPlacement((2 - p.pos[2], p.pos[1], p.pos[0]), p.kind, turn[p.orient]) for p in shape]


def flyer_genomes(vf) -> list:
    decode_cfg, _, _ = configs(vf)
    shape = vf.parse_shape(REFERENCE_FLYER)
    genomes = []
    for _ in range(4):
        genomes.append(_genome_for_shape(vf, shape, decode_cfg))
        shape = _rotate_y(vf, shape)
    return genomes


def harvest_genomes(vf) -> list:
    """Busy oscillators from one fixed-seed PF run, in evaluation order."""
    from voxelflight import search

    decode_cfg, tick_cfg, fit_cfg = configs(vf)
    evaluated = []
    real_evaluate = search.evaluate

    def recording_evaluate(genome, *args):
        result = real_evaluate(genome, *args)
        evaluated.append((genome, result.ticks_used))
        return result

    search.evaluate = recording_evaluate
    try:
        search.mu_plus_lambda_run(vf.SearchBudget(**HARVEST_BUDGET), decode_cfg, tick_cfg, fit_cfg, HARVEST_SEED)
    finally:
        search.evaluate = real_evaluate
    low, high = HARVEST_TICKS
    return [g for g, ticks in evaluated if low <= ticks <= high]


def _take_distinct(vf, candidates, seen: set, limit: int) -> list:
    decode_cfg, _, _ = configs(vf)
    out = []
    for genome in candidates:
        key = shape_key(vf, genome, decode_cfg)
        if key in seen:
            continue
        seen.add(key)
        out.append(genome)
        if len(out) == limit:
            break
    return out


def random_section(vf, seed: int, fixed: dict) -> list:
    """RANDOM_COUNT random genomes whose shapes differ from each other and from `fixed`."""
    decode_cfg, _, _ = configs(vf)
    seen = {shape_key(vf, g, decode_cfg) for name in ("flyer", "harvest") for g in fixed[name]}
    # Random shapes almost never repeat; draw a margin and keep the first distinct ones.
    rng = np.random.default_rng(seed)
    candidates = [vf.random_genome(rng, decode_cfg.genome_length) for _ in range(RANDOM_COUNT + 50)]
    out = _take_distinct(vf, candidates, seen, RANDOM_COUNT)
    if len(out) != RANDOM_COUNT:
        raise RuntimeError(f"only {len(out)} distinct random shapes for seed {seed}")
    return out


def generate(vf, seed: int) -> dict:
    seen: set = set()
    sections = {"flyer": _take_distinct(vf, flyer_genomes(vf), seen, 4)}
    latest = _take_distinct(vf, reversed(harvest_genomes(vf)), seen, HARVEST_COUNT)
    sections["harvest"] = latest[::-1]
    if len(sections["harvest"]) != HARVEST_COUNT:
        raise RuntimeError(f"harvest found {len(sections['harvest'])} distinct busy shapes, need {HARVEST_COUNT}")
    sections["random"] = random_section(vf, seed, sections)
    return sections


def format_corpus(vf, seed: int, sections: dict) -> str:
    lines = [
        "# voxelflight benchmark evaluation corpus (block set observer, observer rewrite on)",
        f"# regenerate: python3 bench/corpus.py --seed {seed} --out bench/corpus.txt",
        f"seed {seed}",
    ]
    for name in SECTIONS:
        lines.append(f"section {name} {len(sections[name])}")
        lines.extend(vf.genome_to_line(g) for g in sections[name])
    return "\n".join(lines) + "\n"


def parse_corpus(vf, text: str) -> tuple[int, dict]:
    seed = None
    sections: dict = {}
    counts: dict = {}
    current = None
    for raw in text.splitlines():
        if not raw or raw.startswith("#"):
            continue
        head = raw.split()
        if head[0] == "seed":
            seed = int(head[1])
        elif head[0] == "section":
            current = sections.setdefault(head[1], [])
            counts[head[1]] = int(head[2])
        else:
            current.append(vf.genome_from_line(raw))
    if seed is None or tuple(sections) != SECTIONS or any(len(sections[n]) != counts[n] for n in SECTIONS):
        raise ValueError("corpus file lacks a seed line, a section, or genomes of a section")
    return seed, sections


def load(vf, seed: int, path: str = CORPUS_PATH) -> tuple[list, int]:
    """(genomes, count of seed-independent genomes) of the corpus for `seed`.

    The flyer and harvest sections come from the checked-in file; the random
    section is always rebuilt from `seed`, and must equal the file's own
    random section when `seed` is the file's seed.
    """
    with open(path) as fh:
        file_seed, sections = parse_corpus(vf, fh.read())
    random = random_section(vf, seed, sections)
    if seed == file_seed and [vf.genome_to_line(g) for g in random] != [vf.genome_to_line(g) for g in sections["random"]]:
        raise SystemExit(f"corpus check failed: random section of {path} does not match seed {seed}")
    fixed = sections["flyer"] + sections["harvest"]
    return fixed + random, len(fixed)


def check(vf, path: str) -> None:
    """Raise unless `path` is byte-identical to the generator's output for its recorded seed."""
    with open(path) as fh:
        text = fh.read()
    seed, _ = parse_corpus(vf, text)
    if format_corpus(vf, seed, generate(vf, seed)) != text:
        raise SystemExit(f"corpus check failed: {path} does not match the generator for seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", help="write the corpus here")
    parser.add_argument("--check", metavar="FILE", help="verify FILE against the generator")
    args = parser.parse_args(argv)
    vf = import_voxelflight()
    if args.check:
        check(vf, args.check)
        print(f"corpus ok: {args.check}")
        return 0
    text = format_corpus(vf, args.seed, generate(vf, args.seed))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
