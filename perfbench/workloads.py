"""Workload inputs and the stages every run is made of.

Each run has a set-up stage, a build stage and a query stage. The workload
decides which of the two is large (its main stage) and which is a small
companion that still gives every end-to-end metric a value:

- ``build``: main stage = repeated BFS builds of a 6 x 6 latent world with
  1,440 services (40 per cell) answered by ``LatentOracle``; companion =
  200 single-cell queries over the last built tree.
- ``query_narrow``: main stage = 480 queries over
  ``make_balanced_taxonomy(8, 3, 30)`` (15,360 services, 585 nodes),
  each for 1-3 services in one leaf; companion = builds of a 3 x 3 world
  with 180 services.
- ``query_broad``: main stage = 400 multi-need queries over
  ``make_balanced_taxonomy(8, 3, 5)`` (2,560 services, 585 nodes), each
  for services in 4-16 leaves; companion = the same small builds.

Queries run as a closed loop of ``CLIENTS`` clients through
``eval_harness.evaluate``; each client sends its next query when the last
one returns. Every chat call goes through ``LatencyBackend``.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from taxonav import builder, eval_harness, registry, search, taxonomy
from taxonav.errors import DiscoveryError
from taxonav.eval_harness import EvalConfig, PerQueryRecord, Summary
from taxonav.gateway import LlmGateway, MockChatBackend
from taxonav.registry import QueryCase, Registry
from taxonav.synthetic import LatentOracle, LatentWorld, make_balanced_taxonomy, make_queries, make_world

from latency import LatencyBackend, PathOracle, TruthOracle

CLIENTS = 2
MIN_BUILDS = 3
COMPANION_BUILDS = 3
COMPANION_QUERIES = 200

SETUP_REPS = {"build": 24, "query_narrow": 9, "query_broad": 24}
TREE_SHAPE = {"query_narrow": (8, 3, 30), "query_broad": (8, 3, 5)}
QUERY_POOL = {"query_narrow": 480, "query_broad": 400}
BUILD_WORLD = (6, 6, 1440)
COMPANION_WORLD = (3, 3, 180)


# -- inputs -------------------------------------------------------------------


def shuffled_world(shape: tuple[int, int, int], seed: int) -> LatentWorld:
    """A latent world whose registry order is shuffled by the seed."""
    world = make_world(*shape)
    services = list(world.registry)
    random.Random(seed).shuffle(services)
    world.registry = Registry(services)
    return world


def _leaf_tag(tree: taxonomy.Taxonomy, leaf_id: str) -> str:
    return tree.node(leaf_id).name.removeprefix("cat-")


def narrow_queries(tree: taxonomy.Taxonomy, count: int, rng: random.Random) -> list[QueryCase]:
    """Queries for 1-3 adjacent services of one random leaf. The sizes
    cycle through 1, 2, 3 so every seed has the same mix."""
    leaves = tree.leaves()
    queries = []
    for i in range(count):
        leaf_id = leaves[rng.randrange(len(leaves))]
        members = tree.node(leaf_id).service_ids
        size = 1 + i % 3
        start = rng.randrange(len(members) - size + 1)
        text = (
            f"I need {size} tool(s) for the synthetic category {_leaf_tag(tree, leaf_id)} "
            f"work (request {i:04d})"
        )
        queries.append(QueryCase(f"q{i:04d}", text, frozenset(members[start : start + size])))
    return queries


def broad_queries(tree: taxonomy.Taxonomy, count: int, rng: random.Random) -> list[QueryCase]:
    """Multi-need queries for 1-2 services in each of 4-16 random leaves.
    The leaf counts cycle through 4..16 so every seed has the same mix;
    the seed picks the leaves, which decides how far apart they lie."""
    leaves = tree.leaves()
    queries = []
    for i in range(count):
        picked = rng.sample(leaves, 4 + i % 13)
        truth: set[str] = set()
        for leaf_id in picked:
            members = tree.node(leaf_id).service_ids
            size = rng.randint(1, 2)
            start = rng.randrange(len(members) - size + 1)
            truth.update(members[start : start + size])
        needs = ", ".join(_leaf_tag(tree, leaf_id) for leaf_id in picked)
        text = f"I need several tools at once, for the categories {needs} (request {i:04d})"
        queries.append(QueryCase(f"q{i:04d}", text, frozenset(truth)))
    return queries


@dataclass
class Inputs:
    """What one set-up produces: files written and loaded back."""

    build_registry: Registry
    build_oracle: Callable
    queries: list[QueryCase]
    query_oracle: Callable
    query_registry: Registry
    query_taxonomy: taxonomy.Taxonomy | None  # None until the build stage made one


def _roundtrip_registry(reg: Registry, path: Path) -> Registry:
    registry.save_registry(reg, path)
    return registry.load_registry(path)


def _roundtrip_queries(queries: list[QueryCase], reg: Registry, path: Path) -> list[QueryCase]:
    registry.save_queries(queries, path)
    return registry.load_queries(path, reg)


def setup(workload: str, seed: int, work_dir: Path) -> Inputs:
    """Generates the workload's inputs from the seed, writes them to
    work_dir and loads them back through the library's loaders."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "build":
        world = shuffled_world(BUILD_WORLD, seed)
        make_queries(world, n=COMPANION_QUERIES, seed=seed)
        reg = _roundtrip_registry(world.registry, work_dir / "registry.jsonl")
        queries = _roundtrip_queries(world.queries, reg, work_dir / "queries.jsonl")
        return Inputs(
            build_registry=reg,
            build_oracle=LatentOracle(world),
            queries=queries,
            query_oracle=TruthOracle(world.query_truth, LatentOracle(world)),
            query_registry=reg,
            query_taxonomy=None,
        )

    rng = random.Random(seed)
    tree, reg = make_balanced_taxonomy(*TREE_SHAPE[workload])
    make = narrow_queries if workload == "query_narrow" else broad_queries
    queries = make(tree, QUERY_POOL[workload], rng)
    companion = shuffled_world(COMPANION_WORLD, seed)

    taxonomy.save(tree, work_dir / "taxonomy")
    reg = _roundtrip_registry(reg, work_dir / "registry.jsonl")
    tree = taxonomy.load(work_dir / "taxonomy")
    queries = _roundtrip_queries(queries, reg, work_dir / "queries.jsonl")
    return Inputs(
        build_registry=_roundtrip_registry(companion.registry, work_dir / "companion.jsonl"),
        build_oracle=LatentOracle(companion),
        queries=queries,
        query_oracle=PathOracle(tree, queries),
        query_registry=reg,
        query_taxonomy=tree,
    )


# -- checks -------------------------------------------------------------------


@dataclass
class Ledger:
    """Attempted and failed operations; every failure is described."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_inputs(inputs: Inputs, ledger: Ledger) -> None:
    """The generated tree of a query workload validates cleanly."""
    if inputs.query_taxonomy is not None:
        violations = taxonomy.validate(inputs.query_taxonomy, inputs.query_registry)
        ledger.check(not violations, f"input taxonomy: {len(violations)} validation violations")


# -- build stage ----------------------------------------------------------------


@dataclass
class BuildStage:
    seconds: list[float] = field(default_factory=list)
    calls: list[int] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    modelled_s: list[float] = field(default_factory=list)
    peak_inflight: list[int] = field(default_factory=list)
    mean_inflight: list[float] = field(default_factory=list)
    reports: list[builder.BuildReport] = field(default_factory=list)
    digest: str = ""
    taxonomy: taxonomy.Taxonomy | None = None


def run_builds(
    inputs: Inputs,
    out_dir: Path,
    ledger: Ledger,
    *,
    min_builds: int,
    seconds: float,
    operation: Callable | None = None,
) -> BuildStage:
    """Builds until ``seconds`` have passed and at least ``min_builds`` ran.

    Each build gets a fresh gateway. The timed part is ``builder.build``
    plus ``taxonomy.save`` and ``BuildReport.save``; the checks after it
    are not timed. ``operation(op_id, fn)`` wraps each timed build. Raises
    when no build succeeded, since then no build metric exists.
    """
    stage = BuildStage()
    started = time.perf_counter()
    index = 0
    while index < min_builds or time.perf_counter() - started < seconds:
        backend = LatencyBackend(MockChatBackend(oracle=inputs.build_oracle))
        gateway = LlmGateway(chat_backend=backend)
        build_dir = out_dir / f"build-{index}"

        def timed() -> tuple[taxonomy.Taxonomy, builder.BuildReport]:
            tree, report = builder.build(inputs.build_registry, builder.BuildConfig(), gateway)
            taxonomy.save(tree, build_dir)
            report.save(build_dir / "build_report.json")
            return tree, report

        t0 = time.perf_counter()
        try:
            tree, report = operation(f"build-{index}", timed) if operation else timed()
        except DiscoveryError as exc:
            ledger.check(False, f"build {index} raised {exc}")
            index += 1
            continue
        elapsed = time.perf_counter() - t0
        window = backend.window()

        violations = taxonomy.validate(tree, inputs.build_registry)
        ledger.check(not violations, f"build {index}: {len(violations)} validation violations")
        ledger.check(
            not report.oversized_leaves and report.catchall_placements == 0,
            f"build {index}: oversized leaves {report.oversized_leaves}, "
            f"{report.catchall_placements} catch-all placements",
        )
        wire = {label.split(".", 1)[1]: n for label, n in window["calls"].items()}
        ledger.check(
            wire == report.calls_by_phase,
            f"build {index}: report calls {report.calls_by_phase} != backend calls {wire}",
        )
        ledger.check(taxonomy.load(build_dir) == tree, f"build {index}: saved taxonomy reloads differently")
        digest = hashlib.sha256((build_dir / taxonomy.TAXONOMY_FILE).read_bytes()).hexdigest()
        stage.digest = stage.digest or digest
        ledger.check(digest == stage.digest, f"build {index}: taxonomy.json digest differs")
        shutil.rmtree(build_dir)

        stage.seconds.append(elapsed)
        stage.calls.append(report.total_calls())
        stage.tokens.append(sum(report.tokens_by_phase.values()))
        stage.modelled_s.append(window["modelled_s"])
        stage.peak_inflight.append(window["peak_inflight"])
        stage.mean_inflight.append(window["mean_inflight"])
        stage.reports.append(report)
        stage.taxonomy = tree
        index += 1
    if not stage.seconds:
        raise RuntimeError(f"every build failed: {ledger.failures[-1]}")
    ledger.check(len(set(stage.calls)) <= 1, f"build call counts differ: {stage.calls}")
    ledger.check(len(set(stage.tokens)) <= 1, f"build token counts differ: {stage.tokens}")
    return stage


# -- query stage ----------------------------------------------------------------


@dataclass
class QueryStage:
    latencies: dict[tuple[int, str], float] = field(default_factory=dict)
    wall_s: float = 0.0
    summary: Summary | None = None
    records: list[PerQueryRecord] = field(default_factory=list)
    round_trips: dict[str, int] = field(default_factory=dict)
    window: dict = field(default_factory=dict)


def round_trips(record: PerQueryRecord) -> int:
    """Sequential chat waves of one query: one per navigated level plus
    one for the parallel selection calls."""
    levels = {step["depth"] for step in record.trace if step["kind"] == "navigate"}
    selects = any(step["kind"] == "select" for step in record.trace)
    return len(levels) + int(selects)


def run_queries(
    inputs: Inputs,
    ledger: Ledger,
    *,
    seconds: float,
    operation: Callable | None = None,
) -> QueryStage:
    """Evaluates the whole query pool, pass after pass, until ``seconds``
    have passed (at least one pass). Latency is timed around the
    retrieve_fn handed to ``eval_harness.evaluate``."""
    backend = LatencyBackend(MockChatBackend(oracle=inputs.query_oracle))
    gateway = LlmGateway(chat_backend=backend)
    cfg = search.SearchConfig()
    tree = inputs.query_taxonomy
    stage = QueryStage()
    pass_index = 0

    def retrieve_fn(case: QueryCase):
        def one():
            return search.retrieve(case.text, tree, inputs.query_registry, gateway, cfg)

        key = (pass_index, case.id)
        t0 = time.perf_counter()
        try:
            if operation is None:
                return one()
            return operation(f"p{pass_index}:{case.id}", one)
        finally:
            stage.latencies[key] = time.perf_counter() - t0

    eval_cfg = EvalConfig(method="taxonomy", dataset="synthetic", setting="get_all", workers=CLIENTS)
    started = time.perf_counter()
    while pass_index == 0 or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        summary, records = eval_harness.evaluate(retrieve_fn, inputs.queries, eval_cfg)
        stage.wall_s += time.perf_counter() - t0
        for record in records:
            ledger.check(
                record.error is None and record.recall == 1.0,
                f"pass {pass_index} query {record.query_id}: recall {record.recall}, "
                f"error {record.error}",
            )
        if stage.summary is None:
            stage.summary, stage.records = summary, records
            stage.round_trips = {r.query_id: round_trips(r) for r in records}
        else:
            ledger.check(
                summary.to_dict() == stage.summary.to_dict(),
                f"pass {pass_index}: summary differs from the first pass",
            )
        pass_index += 1
    stage.window = backend.window()
    return stage


def critical_path_ratio(stage: QueryStage, calls: int) -> float:
    """Median over timed queries of latency / (round trips x mean modelled
    call latency)."""
    per_call = stage.window["modelled_s"] / calls
    ratios = [
        latency / (stage.round_trips[qid] * per_call)
        for (_, qid), latency in stage.latencies.items()
        if stage.round_trips[qid]
    ]
    return statistics.median(ratios)


def check_run_artifacts(
    summary: Summary, records: list[PerQueryRecord], run_dir: Path, ledger: Ledger
) -> None:
    """Writes the run artifacts and checks the summary recomputes exactly."""
    eval_harness.write_run(run_dir, summary, records)
    again = eval_harness.recompute_summary(run_dir)
    ledger.check(again.to_dict() == summary.to_dict(), "recomputed summary differs")
