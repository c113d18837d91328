"""Shared scaffolding for the evaluation applications, and the launch
plane: the one place a run — "app X, variant V, on n nodes" (§V) — is
named, validated, sized, built and started.  :class:`RunSpec` is the run
description every CLI, harness and test shares (command-line spelling:
:func:`add_run_arguments` / :meth:`RunSpec.from_args`); :func:`launch` /
:func:`finish` are the prologue and epilogue of every app's ``run()``.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Generator, List, Mapping, Optional

from repro.core import DIRECTORY_BACKENDS, DexCluster, DexProcess
from repro.core.stats import DexStats
from repro.params import SimParams
from repro.runtime import MemoryAllocator
from repro.runtime.openmp import spawn_team

VARIANTS = ("unmodified", "initial", "optimized")

#: Figure 2 short name -> module
_MODULES: Dict[str, str] = {
    "GRP": "repro.apps.string_match",
    "KMN": "repro.apps.kmeans",
    "BT": "repro.apps.npb.bt",
    "EP": "repro.apps.npb.ep",
    "FT": "repro.apps.npb.ft",
    "BLK": "repro.apps.blackscholes",
    "BFS": "repro.apps.polymer.bfs",
    "BP": "repro.apps.polymer.bp",
}
APP_NAMES = list(_MODULES)
#: the 2-node microbenchmarks, run like any app: §V-D's atomic-add
#: ping-pong and the chaos suite's every-control-message micro
_MODULES.update(pagefault="repro.apps.pagefault",
                micro="repro.apps.chaos_micro")

#: long-form spellings of the short names (any case of a short name works too)
_ALIASES: Dict[str, str] = {
    "string_match": "GRP", "string-match": "GRP", "grep": "GRP",
    "kmeans": "KMN",
    "blackscholes": "BLK",
    "pagerank": "BP",
}

#: the paper's rack (§V); app clusters are never smaller
TESTBED_NODES = 8

#: the ``run()`` keywords a :class:`RunSpec`'s own fields supply
_SPEC_KEYWORDS = frozenset({"num_nodes", "variant", "threads_per_node",
                            "params", "tracer", "cluster"})

#: per-app workload overrides for each scale
SCALE_PRESETS: Dict[str, Dict[str, Dict]] = {
    # sizes chosen as the smallest that keep each app's Figure 2 shape:
    # below them, fixed costs (migration, barriers, cold page transfer)
    # swamp the effects the figure is about
    "small": {
        "GRP": {"text_size": 2 * 1024 * 1024},
        "KMN": {"n_points": 80_000, "max_iters": 2},
        "BT": {"grid_cells": 262_144, "iters": 2},
        "EP": {"n_pairs": 480_000},
        "FT": {"rows": 256, "cols": 256, "iters": 1},
        "BLK": {"n_options": 160_000},
        "BFS": {"n_vertices": 16_384, "n_edges": 60_000},
        "BP": {"n_vertices": 65_536, "n_edges": 1_000_000, "iters": 2},
    },
    # each app's default (scaled-down but contention-faithful) workload
    "paper": {name: {} for name in APP_NAMES},
}


@dataclass
class AdaptationInfo:
    """Table I metadata: how invasive each port was.

    ``initial_loc`` counts the lines the first port adds/changes (the
    migration calls, §V-A); ``optimized_loc`` counts the additional lines
    the §IV optimizations touch.  ``regions`` is the number of converted
    parallel regions for OpenMP apps (None for pthread apps)."""

    multithread_impl: str  # "pthread" | "openmp"
    initial_loc: int
    optimized_loc: int
    regions: Optional[int] = None
    notes: str = ""


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    variant: str
    num_nodes: int
    num_threads: int
    elapsed_us: float        # the timed parallel section
    output: Any              # app-specific result for correctness checks
    stats: DexStats
    correct: Optional[bool] = None  # set when the app verified itself

    @property
    def throughput(self) -> float:
        """Inverse runtime; Figure 2's y-axis is throughput ratios."""
        return 1.0 / self.elapsed_us if self.elapsed_us > 0 else float("inf")


def resolve_app(name: str) -> str:
    """The canonical name for any accepted spelling of an app: a Figure 2
    short name or a micro's name in any case, or a long alias."""
    key = name.lower()
    short = _ALIASES.get(key, key if key in _MODULES else name.upper())
    if short not in _MODULES:
        choices = ", ".join([*_MODULES, *sorted(_ALIASES)])
        raise ValueError(f"unknown app {name!r}; choose from {choices}")
    return short


def get_app(name: str):
    """The app module for any spelling :func:`resolve_app` accepts."""
    return importlib.import_module(_MODULES[resolve_app(name)])


@dataclass(frozen=True)
class RunSpec:
    """One run: which app, which port, how many nodes, what size, on which
    simulated rack.  Construction validates every field (``ValueError``)."""

    app: str
    variant: str = "initial"
    nodes: int = 1
    scale: str = "small"
    threads_per_node: int = 8
    #: coherence-directory backend, laid over *base* when given
    directory: Optional[str] = None
    #: ``SimParams.seed`` (engine RNG, chaos schedule *and* input data),
    #: laid over *base* when given; ``overrides["seed"]`` re-seeds the
    #: input alone, as the app's ``run(seed=)`` does
    seed: Optional[int] = None
    #: keywords for the app's ``run()``, on top of the scale preset
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: the SimParams a tool brings (its switches, a chaos scenario)
    base: Optional[SimParams] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "app", resolve_app(self.app))
        for name, allowed in (("variant", VARIANTS),
                              ("scale", tuple(SCALE_PRESETS))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, "
                                 f"got {getattr(self, name)!r}")
        for name in ("nodes", "threads_per_node"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.overrides:
            known = set(inspect.signature(
                get_app(self.app).run).parameters) - _SPEC_KEYWORDS
            unknown = sorted(set(self.overrides) - known)
            if unknown:
                raise ValueError(
                    f"{self.app} takes no workload argument "
                    f"{', '.join(unknown)}")

    @classmethod
    def from_args(cls, ns: argparse.Namespace, **fixed: Any) -> "RunSpec":
        """The spec a command line parsed through :func:`add_run_arguments`
        names; *fixed* supplies what the CLI does not expose (``base=``) or
        overrides it (one of several ``--nodes``).  A bad combination is a
        usage error (exit 2), like a bad single flag."""
        given = {f.name: getattr(ns, f.name) for f in fields(cls)
                 if hasattr(ns, f.name)}
        if hasattr(ns, "app_arg"):
            given["overrides"] = dict(ns.app_arg)
        try:
            return cls(**{**given, **fixed})
        except ValueError as err:
            ns.run_parser.error(str(err))

    def params(self) -> SimParams:
        """*base* (or the defaults) with ``directory`` / ``seed`` laid on."""
        base = self.base if self.base is not None else SimParams()
        laid = {name: getattr(self, name) for name in ("directory", "seed")
                if getattr(self, name) is not None}
        return base.copy(**laid) if laid else base

    def cluster(self) -> DexCluster:
        """The rack this run is built on — the only place an app-run
        cluster is constructed (``DexCluster`` is looked up in this module
        at call time: DexBench's traced run swaps it).  *nodes* only
        controls placement.  A tool that reads the run's tracer, lens,
        scope or chaos controller afterwards passes it to :meth:`run`.  A
        micro names its own rack (``RACK_NODES``)."""
        rack = getattr(get_app(self.app), "RACK_NODES", None)
        return DexCluster(
            num_nodes=rack or max(self.nodes, TESTBED_NODES),
            params=self.params(),
        )

    def run(self, cluster: Optional[DexCluster] = None,
            tracer=None) -> AppResult:
        """Run the app on *cluster* when the caller built it (and keeps it
        open), else on one :func:`launch` builds and :func:`conclude` closes."""
        return get_app(self.app).run(
            num_nodes=self.nodes, variant=self.variant,
            threads_per_node=self.threads_per_node,
            params=self.params() if cluster is None else cluster.params,
            tracer=tracer, cluster=cluster,
            **{**SCALE_PRESETS[self.scale].get(self.app, {}),
               **self.overrides},
        )


def count_arg(text: str) -> int:
    """argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_arg(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _app_arg(text: str):
    """``KEY=VALUE``: a literal where possible, a string otherwise."""
    key, eq, value = text.partition("=")
    if not (key and eq):
        raise argparse.ArgumentTypeError(f"expects KEY=VALUE, got {text!r}")
    try:
        return key, ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return key, value


#: dest -> argparse keywords, shared by every CLI that exposes the flag
_RUN_ARGUMENTS: Dict[str, Dict[str, Any]] = {
    "app": dict(help="Figure 2 app or 2-node micro (%s), or long alias (%s)"
                % (", ".join(_MODULES), ", ".join(sorted(_ALIASES)))),
    "variant": dict(choices=VARIANTS, default="initial"),
    "nodes": dict(type=count_arg, default=1, help="nodes the run is placed on"),
    "scale": dict(choices=tuple(SCALE_PRESETS), default="small",
                  help="'small' runs in seconds, 'paper' uses the full "
                  "scaled-down defaults"),
    "threads_per_node": dict(type=count_arg, default=8),
    "directory": dict(choices=DIRECTORY_BACKENDS, default=None,
                      help="coherence-directory backend (unset: the "
                      "paper's origin-resident one)"),
    "seed": dict(type=int, default=None,
                 help="engine RNG, chaos schedule and input-data seed"),
    "app_arg": dict(action="append", type=_app_arg, default=[],
                    metavar="KEY=VALUE", help="workload override (repeatable)"),
}
_RUN_ARGUMENTS["apps"] = _RUN_ARGUMENTS["app"]


def add_run_arguments(parser: argparse.ArgumentParser, *flags: str,
                      **defaults: Any) -> None:
    """Declare the run-spec *flags* a CLI exposes, spelled as argparse
    spells them (``"--nodes"``; no dashes = positional), with the CLI's own
    *defaults* by dest name — a list default makes the flag take one or
    more values (each its own run).  Pair with :meth:`RunSpec.from_args`."""
    def app_name(text: str) -> str:
        try:
            return resolve_app(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    for flag in flags:
        dest = flag.lstrip("-").replace("-", "_")
        keywords = dict(_RUN_ARGUMENTS[dest])
        if dest in ("app", "apps"):
            keywords["type"] = app_name
        if dest in defaults:
            keywords["default"] = defaults[dest]
            if isinstance(defaults[dest], list):
                keywords["nargs"] = "+"
        if not flag.startswith("-"):
            keywords.pop("default", None)
        elif keywords["default"] not in (None, []):
            keywords["help"] = (keywords.get("help", "")
                                + " (default: %(default)s)").strip()
        parser.add_argument(flag, **keywords)
    parser.set_defaults(run_parser=parser)


@dataclass
class Launch:
    """A started run: what an app's ``run()`` body works with."""

    spec: RunSpec
    cluster: DexCluster
    proc: DexProcess
    alloc: MemoryAllocator
    #: the node set the run uses (origin first)
    nodes: List[int]
    num_threads: int
    #: workers perform the paper's conversion (migrate out, run, back)
    migrate: bool
    #: the §IV layout/staging fixes are applied
    optimized: bool
    #: workload-generation seed
    seed: int
    #: :func:`launch` built the cluster, so :func:`finish` closes it
    owns_cluster: bool = False


def launch(app: str, num_nodes: int, variant: str, threads_per_node: int, *,
           default_seed: int, params: Optional[SimParams] = None, tracer=None,
           seed: Optional[int] = None,
           cluster: Optional[DexCluster] = None) -> Launch:
    """The prologue of every app's ``run()``: validate the request, build
    the cluster (unless the caller owns it), start a process on it.  The
    input seed, unless given, is ``SimParams.seed`` when the caller pinned
    one (a single knob then reproduces engine event order, chaos schedule
    *and* input data), else the app's calibrated historical *default_seed*
    (timings stay bit-identical when no seed is requested)."""
    spec = RunSpec(app, variant, num_nodes, threads_per_node=threads_per_node,
                   base=params)
    owns_cluster = cluster is None
    if owns_cluster:
        cluster = spec.cluster()
    elif num_nodes > cluster.num_nodes:
        raise ValueError(
            f"num_nodes must be in [1, {cluster.num_nodes}], got {num_nodes}")
    if seed is None:
        pinned = params is not None and params.seed is not None
        seed = params.seed if pinned else default_seed
    proc = cluster.create_process()
    if tracer is not None:
        proc.add_hook(tracer)
    return Launch(
        spec, cluster, proc, MemoryAllocator(proc),
        nodes=list(range(num_nodes)), num_threads=threads_per_node * num_nodes,
        migrate=variant != "unmodified", optimized=variant == "optimized",
        seed=seed, owns_cluster=owns_cluster,
    )


def finish(job: Launch, body: Callable[..., Generator],
           collect: Callable[..., Generator],
           setup: Optional[Callable[..., Generator]] = None,
           migrate_around: bool = True) -> AppResult:
    """The epilogue of every app's ``run()``: *setup* (untimed), the timed
    parallel section of ``body(ctx, wid)`` workers, then *collect*, which
    returns ``(output, correct)``.  ``migrate_around=False`` is for bodies
    that migrate per region themselves."""
    def steps():
        if setup is not None:
            job.cluster.simulate(setup, job.proc)
        elapsed = run_workers(job, body, job.migrate and migrate_around)
        return (elapsed, *job.cluster.simulate(collect, job.proc))

    return conclude(job, steps)


def conclude(job: Launch, steps: Callable[[], tuple]) -> AppResult:
    """Run *steps()*, which returns ``(elapsed_us, output, correct)``, as
    the job's :class:`AppResult`; a cluster :func:`launch` built is closed
    on the way out, however *steps* ends."""
    try:
        elapsed, output, correct = steps()
    finally:
        if job.owns_cluster:
            job.cluster.close()
    spec = job.spec
    return AppResult(
        app=spec.app, variant=spec.variant, num_nodes=spec.nodes,
        num_threads=job.num_threads, elapsed_us=elapsed, output=output,
        stats=job.proc.stats, correct=correct,
    )


def run_workers(job: Launch, body: Callable[..., Generator],
                migrate: bool) -> float:
    """The common harness: spawn the job's workers (a
    :func:`~repro.runtime.openmp.spawn_team` started from outside the
    simulation), each performing the paper's conversion when *migrate*.
    Returns the elapsed simulated time of the parallel section."""
    cluster, proc = job.cluster, job.proc
    start = cluster.engine.now
    threads = spawn_team(proc, body, job.num_threads, job.nodes, migrate,
                         prefix="w")

    def waiter(ctx) -> Generator:
        yield from proc.join_all(threads)

    cluster.simulate(waiter, proc)
    return cluster.engine.now - start
