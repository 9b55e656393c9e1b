"""The two kinds of run: end-to-end metrics untraced, per-layer metrics traced."""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from pathlib import Path

import workloads as wl
from latency import LatencyBackend
from layers import BUILD_PHASES, derive
from spans import Tracer
from taxonav import baselines, eval_harness, search
from taxonav.gateway import LlmGateway, MockChatBackend, MockEmbeddingBackend

BASELINE_SAMPLE = 5
TOP_K = 10


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setups(workload: str, seed: int, work: Path, reps: int):
    """Runs the set-up ``reps`` times; returns the times and the last inputs."""
    times = []
    inputs = None
    for _ in range(reps):
        # Free the previous inputs, and collect their garbage, outside the
        # timed region, so each set-up starts from the same heap.
        inputs = None
        gc.collect()
        shutil.rmtree(work / "setup", ignore_errors=True)
        t0 = time.perf_counter()
        inputs = wl.setup(workload, seed, work / "setup")
        times.append(time.perf_counter() - t0)
    return times, inputs


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[wl.Ledger, dict]:
    # The set-ups run in three batches, at the start, between the stages and
    # at the end, so their median samples the machine across the whole run.
    ledger = wl.Ledger()
    batch = wl.SETUP_REPS[workload] // 3
    setup_times, inputs = timed_setups(workload, seed, work, batch)
    wl.check_inputs(inputs, ledger)
    if workload == "build":
        builds = wl.run_builds(inputs, work, ledger, min_builds=wl.MIN_BUILDS, seconds=seconds)
        inputs.query_taxonomy = builds.taxonomy
        setup_times += timed_setups(workload, seed, work, batch)[0]
        queries = wl.run_queries(inputs, ledger, seconds=0)
    else:
        builds = wl.run_builds(inputs, work, ledger, min_builds=wl.COMPANION_BUILDS, seconds=0)
        setup_times += timed_setups(workload, seed, work, batch)[0]
        queries = wl.run_queries(inputs, ledger, seconds=seconds)
    setup_times += timed_setups(workload, seed, work, batch)[0]
    wl.check_run_artifacts(queries.summary, queries.records, work / "run", ledger)

    latencies = list(queries.latencies.values())
    print(
        f"{workload}: {len(setup_times)} set-ups, {len(builds.seconds)} builds "
        f"(taxonomy.json sha256 {builds.digest[:16]}), {len(latencies)} timed queries "
        f"from {wl.CLIENTS} closed-loop clients"
    )
    summary = queries.summary
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "query_p50_ms": _metric(1000 * statistics.median(latencies), "ms"),
        "query_p95_ms": _metric(1000 * statistics.quantiles(latencies, n=20)[18], "ms"),
        "query_qps": _metric(len(latencies) / queries.wall_s, "queries/s"),
        "tokens_per_query": _metric(summary.tokens_per_query, "tokens"),
        "calls_per_query": _metric(summary.calls_per_query, "calls"),
        "recall": _metric(summary.recall, "ratio"),
        "build_s": _metric(statistics.median(builds.seconds), "s"),
        "build_calls": _metric(builds.calls[0], "calls"),
        "build_tokens": _metric(builds.tokens[0], "tokens"),
        "success_rate": _metric(1 - len(ledger.failures) / ledger.attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return ledger, metrics


def run_baselines(inputs, ledger: wl.Ledger) -> tuple[dict, tuple]:
    """Pure-LLM and embedding top-K against taxonomy search on the first
    BASELINE_SAMPLE queries, through an oracle backend without latency."""
    cases = inputs.queries[:BASELINE_SAMPLE]
    gateway = LlmGateway(
        chat_backend=MockChatBackend(oracle=inputs.query_oracle),
        embedding_backend=MockEmbeddingBackend(),
    )
    pure = [baselines.pure_llm_retrieve(c.text, inputs.query_registry, gateway) for c in cases]
    for case, result in zip(cases, pure):
        ledger.check(set(result.service_ids) == case.ground_truth, f"pure-LLM {case.id} missed")
    summary, records = eval_harness.evaluate(
        lambda c: search.retrieve(c.text, inputs.query_taxonomy, inputs.query_registry, gateway),
        cases,
        eval_harness.EvalConfig(method="taxonomy", dataset="synthetic", setting="get_all", workers=1),
    )
    ledger.check(summary.recall == 1.0, f"baseline-sample taxonomy recall {summary.recall}")
    index = baselines.build_embedding_index(inputs.query_registry, gateway)
    for case in cases:
        found = baselines.topk_retrieve(case.text, index, TOP_K, gateway).service_ids
        ledger.check(len(found) == TOP_K, f"top-K {case.id} returned {len(found)} ids")
    figures = {
        "pure_llm_tokens": statistics.fmean(r.prompt_tokens + r.output_tokens for r in pure),
        "taxonomy_tokens": summary.tokens_per_query,
    }
    return figures, (summary, records)


def traced(workload: str, seed: int, seconds: float, work: Path, out_dir: Path) -> tuple[wl.Ledger, dict]:
    ledger = wl.Ledger()
    tracer = Tracer()
    backend_attrs = lambda args, _kw, result: {  # noqa: E731
        "label": args[2],
        "prompt_tokens": result.prompt_tokens,
        "output_tokens": result.output_tokens,
    }
    tracer.install(extra=((LatencyBackend, "complete", "gateway.backend", backend_attrs),))
    try:
        tracer.enabled = True
        tracer.phase = "setup"
        _, inputs = timed_setups(workload, seed, work, wl.SETUP_REPS[workload] // 3)
        wl.check_inputs(inputs, ledger)

        tracer.enabled = False
        extra: dict = {"critical_path_ratio": 0.0, "bound_ratio": 0.0, "calls_by_phase": {}}
        if workload == "build":
            plain = wl.run_builds(inputs, work, ledger, min_builds=wl.MIN_BUILDS, seconds=seconds)
            tracer.enabled = True
            tracer.phase = "main"
            builds = wl.run_builds(
                inputs, work, ledger, min_builds=wl.MIN_BUILDS, seconds=seconds,
                operation=lambda op, fn: tracer.operation(op, "bench.build", fn),
            )
            inputs.query_taxonomy = builds.taxonomy
            n_ops = len(builds.seconds)
            plain_s = statistics.median(plain.seconds)
            workers = LlmGateway().workers
            extra.update(
                peak_inflight=max(plain.peak_inflight),
                mean_inflight=statistics.fmean(plain.mean_inflight),
                bound_ratio=plain_s / (statistics.median(plain.modelled_s) / workers),
                overhead_pct=100 * (statistics.median(builds.seconds) / plain_s - 1),
                calls_by_phase={
                    phase: statistics.fmean(r.calls_by_phase.get(phase, 0) for r in builds.reports)
                    for phase in BUILD_PHASES
                },
            )
        else:
            plain = wl.run_queries(inputs, ledger, seconds=seconds)
            tracer.enabled = True
            tracer.phase = "main"
            queries = wl.run_queries(
                inputs, ledger, seconds=seconds,
                operation=lambda op, fn: tracer.operation(op, "bench.query", fn),
            )
            n_ops = len(queries.latencies)
            plain_p50 = statistics.median(plain.latencies.values())
            extra.update(
                peak_inflight=plain.window["peak_inflight"],
                mean_inflight=plain.window["mean_inflight"],
                critical_path_ratio=wl.critical_path_ratio(plain, sum(plain.window["calls"].values())),
                overhead_pct=100 * (statistics.median(queries.latencies.values()) / plain_p50 - 1),
            )
            main_run = (queries.summary, queries.records)

        tracer.phase = "baselines"
        figures, sample_run = run_baselines(inputs, ledger)
        extra.update(figures)
        tracer.phase = "post"
        summary, records = sample_run if workload == "build" else main_run
        wl.check_run_artifacts(summary, records, work / "run", ledger)
        tracer.enabled = False
    finally:
        tracer.uninstall()

    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    print(f"{workload}: {len(tracer.spans)} spans over {n_ops} traced operations in {spans_path}")
    metrics = {name: _metric(value, unit) for name, (value, unit) in derive(tracer.spans, n_ops, extra).items()}
    return ledger, metrics
