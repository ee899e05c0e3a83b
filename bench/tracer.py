"""Layer tracing for one benchmark repetition.

Each public function is patched where its caller looks it up, so the trace
sees exactly the calls the program makes. A patch target that no longer
exists is an error, and so is a layer the workload must use that records no
call: a refactor then shows up as a failed or changed trace, never as a
silently empty layer.

Evaluations and everything above them (search loop, campaign run, campaign)
are recorded as spans with their own ids; calls below an evaluation (step,
compute_power, poll, ...) are only counted and timed, and each evaluation
span carries its own step and poll counts and busy time. Self time of a
layer is its inclusive time minus the time of traced calls made inside it.
"""

from __future__ import annotations

import importlib
from time import perf_counter


class TraceError(RuntimeError):
    """A trace point is missing, or a layer the workload must use recorded no calls."""


# Stat names each workload must record calls for.
EXPECTED = {
    "eval-corpus": (
        "fitness.evaluate", "genome.decode", "blocks.place_shape", "sim.run_until", "fitness.poll",
        "blocks.region_scan", "sim.step", "sim.compute_power", "sim.compute_push_set",
    ),
}
EXPECTED["campaign-pf"] = EXPECTED["eval-corpus"] + (
    "search.loop", "genome.variation", "search.select_survivors", "campaign.write", "campaign.run", "campaign.campaign",
)
EXPECTED["campaign-me-po"] = EXPECTED["eval-corpus"] + (
    "search.loop", "genome.variation", "search.archive_insert", "behavior.descriptor", "campaign.write",
    "campaign.run", "campaign.campaign",
)


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive seconds, seconds in traced children]
        self._frames: list[list[float]] = []
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.moved_steps = 0
        self.accepted_inserts = 0
        self.ticks: list[int] = []
        self.flew = 0
        self.placements = 0
        self.duplicate_placements = 0
        self._shapes: set = set()
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def timed(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def spanned(self, name, fn, after=None):
        inner = self.timed(name, fn, after)
        step = self.stats.setdefault("sim.step", [0, 0.0, 0.0])
        poll = self.stats.setdefault("fitness.poll", [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            if name == "search.loop":
                self._shapes = set()  # duplicate shapes are counted within one search run
            below = (step[0], step[1], poll[0], poll[1])
            span["start"] = perf_counter() - self.t0
            try:
                return inner(*args, **kwargs)
            finally:
                span["end"] = perf_counter() - self.t0
                self._open.pop()
                if name == "fitness.evaluate":
                    span["steps"] = step[0] - below[0]
                    span["step_s"] = step[1] - below[1]
                    span["polls"] = poll[0] - below[2]
                    span["poll_s"] = poll[1] - below[3]

        return wrapper

    # -- callbacks ------------------------------------------------------

    def _after_step(self, result, args, kwargs):
        if result[1]:
            self.moved_steps += 1

    def _after_insert(self, result, args, kwargs):
        if result:
            self.accepted_inserts += 1

    def _after_evaluate(self, result, args, kwargs):
        self.ticks.append(result.ticks_used)
        self.flew += bool(result.flew)

    def _after_place(self, result, args, kwargs):
        shape = args[1] if len(args) > 1 else kwargs["shape"]
        key = tuple(shape)
        self.placements += 1
        if key in self._shapes:
            self.duplicate_placements += 1
        self._shapes.add(key)

    def _run_until(self, fn):
        def run_until(world, cfg, max_ticks, observer):
            return fn(world, cfg, max_ticks, self.timed("fitness.poll", observer))

        return self.timed("sim.run_until", run_until)

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace `owner.attr` (a module global or class attribute) by make(original)."""
        if attr not in vars(owner):
            where = getattr(owner, "__name__", owner)
            raise TraceError(f"trace point {where}.{attr} does not exist; update bench/tracer.py")
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def install(self, workload: str) -> None:
        mod = importlib.import_module
        vf, fitness, sim, search = mod("voxelflight"), mod("voxelflight.fitness"), mod("voxelflight.sim"), mod("voxelflight.search")
        self.patch(fitness, "run_until", self._run_until)
        self.patch(sim, "step", lambda f: self.timed("sim.step", f, self._after_step))
        self.patch(sim, "compute_power", lambda f: self.timed("sim.compute_power", f))
        self.patch(sim, "compute_push_set", lambda f: self.timed("sim.compute_push_set", f))
        self.patch(fitness, "center_of_mass", lambda f: self.timed("blocks.region_scan", f))
        self.patch(fitness, "count_blocks", lambda f: self.timed("blocks.region_scan", f))
        self.patch(fitness, "place_shape", lambda f: self.timed("blocks.place_shape", f, self._after_place))
        self.patch(fitness, "decode", lambda f: self.timed("genome.decode", f))
        evaluate_span = lambda f: self.spanned("fitness.evaluate", f, self._after_evaluate)  # noqa: E731
        if workload == "eval-corpus":
            self.patch(vf, "evaluate", evaluate_span)
            return
        campaign, cli, behavior = mod("voxelflight.campaign"), mod("voxelflight.cli"), mod("voxelflight.behavior")
        self.patch(search, "evaluate", evaluate_span)
        self.patch(search, "decode", lambda f: self.timed("genome.decode", f))
        self.patch(search, "polynomial_mutate", lambda f: self.timed("genome.variation", f))
        self.patch(search, "crossover", lambda f: self.timed("genome.variation", f))
        self.patch(search.Archive, "insert", lambda f: self.timed("search.archive_insert", f, self._after_insert))
        self.patch(search, "select_survivors", lambda f: self.timed("search.select_survivors", f))
        self.patch(behavior.ArchiveLayout, "descriptor", lambda f: self.timed("behavior.descriptor", f))
        self.patch(behavior.ArchiveLayout, "bin_index", lambda f: self.timed("behavior.descriptor", f))
        self.patch(campaign, "map_elites_run", lambda f: self.spanned("search.loop", f))
        self.patch(campaign, "mu_plus_lambda_run", lambda f: self.spanned("search.loop", f))
        self.patch(campaign, "run_single", lambda f: self.spanned("campaign.run", f))
        self.patch(cli, "run_campaign", lambda f: self.spanned("campaign.campaign", f))
        for name in ("save_archive", "save_population", "write_summary"):
            self.patch(campaign, name, lambda f: self.timed("campaign.write", f))
        self.patch(search.RunLog, "to_csv", lambda f: self.timed("campaign.write", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def check_expected(self, workload: str) -> None:
        silent = [name for name in EXPECTED[workload] if self.stats.get(name, [0])[0] == 0]
        if silent:
            raise TraceError(f"{workload}: layers recorded no calls: {', '.join(silent)}")

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        calls, inclusive, children = self.stats.get(name, [0, 0.0, 0.0])
        return inclusive - children

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this repetition (quality and campaign-size metrics are added by the caller)."""
        evals = self.calls("fitness.evaluate")
        steps = self.calls("sim.step")
        ticks = sum(self.ticks)
        inserts = self.calls("search.archive_insert")
        ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
        return {
            "sim.step.calls": steps,
            "sim.steps_per_sim_tick": ratio(steps, ticks),
            "sim.step.moved_ratio": ratio(self.moved_steps, steps),
            "sim.step.self_s": self.self_s("sim.step"),
            "sim.compute_power.self_s": self.self_s("sim.compute_power"),
            "sim.compute_push_set.calls": self.calls("sim.compute_push_set"),
            "sim.compute_push_set.self_s": self.self_s("sim.compute_push_set"),
            "sim.run_until.self_s": self.self_s("sim.run_until"),
            "fitness.poll.calls": self.calls("fitness.poll"),
            "fitness.poll.self_s": self.self_s("fitness.poll"),
            "blocks.region_scan.self_s": self.self_s("blocks.region_scan"),
            "blocks.place_shape.self_s": self.self_s("blocks.place_shape"),
            "fitness.evaluate.self_s": self.self_s("fitness.evaluate"),
            "fitness.evaluate.calls": evals,
            "fitness.ticks_per_eval.mean": ratio(ticks, len(self.ticks)),
            "fitness.ticks_per_eval.max": max(self.ticks, default=0),
            "fitness.flew_count": self.flew,
            "fitness.duplicate_shape_ratio": ratio(self.duplicate_placements, self.placements),
            "genome.decode.calls_per_eval": ratio(self.calls("genome.decode"), evals),
            "genome.decode.self_s": self.self_s("genome.decode"),
            "genome.variation.self_s": self.self_s("genome.variation"),
            "behavior.descriptor.self_s": self.self_s("behavior.descriptor"),
            "search.loop.self_s": self.self_s("search.loop"),
            "search.archive_insert.calls": inserts,
            "search.archive_insert.accepted_ratio": ratio(self.accepted_inserts, inserts),
            "search.archive_insert.self_s": self.self_s("search.archive_insert"),
            "search.select_survivors.self_s": self.self_s("search.select_survivors"),
            "campaign.write.self_s": self.self_s("campaign.write"),
        }
