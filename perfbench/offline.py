"""offline-uniform: in-process ``ClassificationEngine.classify_block``.

A uniform 20k-packet trace in 512-row blocks over nm+tm on acl1-8k.  Uniform
packets defeat every cache, so each packet pays for the iSet inference and
the remainder; no ``serving.*`` code runs.
"""

from __future__ import annotations

import time

import numpy as np

import common
from common import BLOCK_ROWS, SETUPS, pct
from report import Result
from spans import LayerTotals, SpanRecorder, install_layer_spans


def _build(ruleset):
    from repro.engine import ClassificationEngine

    return ClassificationEngine.build(
        ruleset, classifier="nm", remainder_classifier="tm", config=common.nm_config()
    )


def _passes(engine, block, truth, seconds: float):
    """Classify the trace block by block, in whole passes, until ``seconds``
    have passed (at least one pass).

    Returns the per-block call times (s) and the number of blocks answered
    wrongly; answers are compared outside the timed calls.
    """
    latencies = []
    wrong = 0
    deadline = time.perf_counter() + seconds
    while True:
        for start in range(0, len(block), BLOCK_ROWS):
            began = time.perf_counter()
            rule_ids, _priorities = engine.classify_block(block[start : start + BLOCK_ROWS])
            latencies.append(time.perf_counter() - began)
            wrong += not np.array_equal(rule_ids, truth[start : start + BLOCK_ROWS])
        if time.perf_counter() >= deadline:
            return latencies, wrong


def _pps(latencies) -> float:
    return len(latencies) * BLOCK_ROWS / sum(latencies)


def run(seed: int, seconds: float, trace: bool) -> Result:
    directory = common.run_dir()
    _path, ruleset = common.write_ruleset(seed, directory)
    block = common.uniform_block(ruleset, seed)
    truth = common.ground_truth(ruleset, block, "uniform")
    result = Result()

    # Each set-up is followed by its share of the measurement, so the
    # measured seconds are spread over a longer stretch of the host's
    # fast and slow spells.
    setups, latencies, wrong = [], [], 0
    rounds = 1 if trace else SETUPS
    window = seconds / 2 if trace else seconds
    for _ in range(rounds):
        began = time.perf_counter()
        engine = _build(ruleset)
        setups.append(time.perf_counter() - began)
        _passes(engine, block, truth, 0.0)  # warm pass
        more, more_wrong = _passes(engine, block, truth, window / rounds)
        latencies += more
        wrong += more_wrong
    result.count(len(latencies), wrong)
    # Block times are bimodal on a shared host (fast and slow spells of
    # seconds); their p90 is steadier across runs than the median or mean.
    p90 = pct(latencies, 90)
    result.e2e(
        setup_s=float(np.median(setups)),
        ok_frac=1.0 - wrong / len(latencies),
        classify_pps=BLOCK_ROWS / p90,
        classify_p90_us=p90 * 1e6,
    )
    result.info("setup_s", float(np.median(setups)), "s")
    result.info("offline_pps", _pps(latencies), "1/s")
    result.info("index_bytes", engine.memory_footprint().index_bytes, "bytes")
    for q in (50, 95):
        result.info(f"block_p{q}_us", pct(latencies, q) * 1e6, "us")
    result.info("blocks", len(latencies), "count")
    result.info("fail_frac", wrong / len(latencies), "frac")
    result.info("training_seconds", engine.statistics().get("training_seconds", 0.0), "s")
    if trace:
        _traced(result, ruleset, engine, block, truth, window, _pps(latencies))
    return result


def _traced(result, ruleset, engine, block, truth, window, untraced_pps) -> None:
    from repro.simulation import CostModel
    from repro.simulation.perf import evaluate_classifier_batched

    recorder = SpanRecorder()
    install_layer_spans(recorder)
    try:
        began = time.perf_counter()
        traced_engine = _build(ruleset)
        train_s = time.perf_counter() - began
        _passes(traced_engine, block, truth, 0.0)
        recorder.spans.clear()
        latencies, wrong = _passes(traced_engine, block, truth, window)
    finally:
        recorder.uninstall()
    result.count(len(latencies), wrong)
    layers = LayerTotals(recorder.spans)
    engine_rows = layers.rows["engine"]
    result.layer("iset.ns_per_pkt", layers.self_ns["iset"] / engine_rows)
    result.layer("remainder.ns_per_pkt", layers.self_ns["remainder"] / engine_rows)
    result.layer(
        "remainder.useful_frac", layers.useful["remainder"] / max(1, layers.rows["remainder"])
    )
    result.layer("engine.self_ns_per_pkt", layers.self_ns["engine"] / engine_rows)
    result.layer("setup.train_s", train_s)
    result.layer(
        "trace.unattributed_frac", 1.0 - layers.total_ns("engine") / (sum(latencies) * 1e9)
    )
    result.layer("trace.overhead_frac", untraced_pps / _pps(latencies) - 1.0)
    modelled = evaluate_classifier_batched(
        engine.classifier,
        [tuple(int(v) for v in row) for row in block[:2048]],
        CostModel(),
        batch_size=BLOCK_ROWS,
    )
    result.info("modelled_pps (CostModel, information only)", modelled.throughput_pps, "1/s")
    lookup_ns = layers.self_ns["iset"] + layers.self_ns["remainder"]
    result.info("remainder share of lookup time", layers.self_ns["remainder"] / lookup_ns, "frac")
