"""update-mix: the default ``repro serve`` stack with writes beside reads.

Two shards on the shared-memory ``workers`` executor behind a 4096-entry
flow cache, with a retrain threshold low enough that every run retrains and
swaps in the background.  Connection A sends wire-v2 classify batches at a
fixed low rate; connection B sends JSON ``insert``/``remove`` on an open-loop
schedule, strictly one at a time, and after each acknowledgement a JSON
``classify`` probe of a packet inside the updated rule (read-your-write).
Before that mixed phase, every launch runs a short closed-loop wire-v2 burst
on connection A, which measures the rate the stack sustains.

The update stream inserts fresh rules that copy a base rule's ranges with a
priority that beats the probe packet's base answer, and removes the oldest
inserted rule once ``WINDOW`` are live.  Base rules are never touched, so
linear search on any state is the base answer (``LinearSearchClassifier``)
merged with a scan of the live inserted rules, best ``(priority, rule_id)``
first.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque

import numpy as np

import common
from common import BATCH, CACHE_SIZE, SETUPS, pct
from loadgen import (
    ERROR, OK, OVERLOADED, SKIPPED, TIMEOUT, WRONG, Record, UpdateLog, check_static,
    check_windowed, classify_closed_loop, classify_open_loop, delivered_pps, quiet_collector,
    summarize,
)
from report import Result
from serverproc import launch
from spans import LayerTotals, load_spans, setup_train_s

#: Low enough that every run retrains and swaps shards in the background.
RETRAIN_THRESHOLD = 0.09
#: Connection A: wire-v2 classify frames per second.
CLASSIFY_FPS = 4.0
#: Connection B: updates per second (each followed by its probe).
UPDATE_RATE = 25.0
#: Inserted rules live at once before the stream starts removing.
WINDOW = 32
#: Share of the measured seconds spent in the closed-loop bursts (split
#: evenly over the launches), and the requests a burst keeps outstanding.
BURST_SHARE = 0.2
BURST_DEPTH = 2
TIMEOUT_S = 30.0


def serve_args(rules_path: str) -> list[str]:
    return [
        rules_path,
        "--cache-size", str(CACHE_SIZE),
        "--retrain-threshold", str(RETRAIN_THRESHOLD),
        "--listen", "127.0.0.1:0",
    ]


class UpdatePlan:
    """The seed's update stream and the rule-set state after each update."""

    def __init__(self, ruleset, seed: int, count: int):
        from repro.rules.rule import Rule

        rng = random.Random(seed * 1_000_003 + 17)
        base = ruleset.rules
        picks = [base[rng.randrange(len(base))] for _ in range(count)]
        probes = np.array([rule.sample_packet(rng).values for rule in picks], dtype=np.uint64)
        probe_truth = common.ground_truth(ruleset, probes, "mix-probe")
        next_id = max(rule.rule_id for rule in base) + 1
        live: deque = deque()
        #: ops[i] = (kind, rule, probe packet, its base-rule answer);
        #: states[k] = live inserted rules after k updates.
        self.ops: list[tuple[str, object, tuple, int]] = []
        self.states: list[tuple] = [()]
        for rule, probe, answer in zip(picks, probes, probe_truth):
            if len(live) >= WINDOW and len(self.ops) % 2:
                gone, gone_probe, gone_answer = live.popleft()
                self.ops.append(("remove", gone, gone_probe, gone_answer))
            elif answer > 0:
                # Base priority equals base id after parsing; beat the answer.
                fresh = Rule(rule.ranges, rng.randrange(0, int(answer)), f"u{next_id}", next_id)
                next_id += 1
                packet = tuple(int(v) for v in probe)
                live.append((fresh, packet, int(answer)))
                self.ops.append(("insert", fresh, packet, int(answer)))
            else:
                continue
            self.states.append(tuple(entry[0] for entry in live))

    def reference(self, state: int, packet, base_answer: int) -> int:
        """Linear search on state ``state`` for a packet whose base-rule
        answer is ``base_answer``."""
        best = (base_answer, base_answer) if base_answer >= 0 else None
        for rule in self.states[state]:
            key = (rule.priority, rule.rule_id)
            if (best is None or key < best) and rule.matches(packet):
                best = key
        return -1 if best is None else best[1]


async def update_stream(client, plan: UpdatePlan, seconds: float, log: UpdateLog) -> list[Record]:
    """Open-loop schedule, strictly in sequence: update, ack, probe.

    Every update scheduled inside ``seconds`` gets a record.  After a failed
    update the server's state is unknown, so the stream stops and the
    updates it did not send stay ``skipped`` (failures too).
    """
    from repro.serving.server import ServerError

    interval = 1.0 / UPDATE_RATE
    start = time.perf_counter() + 0.005
    count = min(len(plan.ops), int(np.ceil(seconds * UPDATE_RATE)))
    records = [
        Record(plan.ops[index][0], start + index * interval, status=SKIPPED,
               rows=np.array([index]))
        for index in range(count)
    ]
    for index, record in enumerate(records):
        _kind, rule, packet, _answer = plan.ops[index]
        delay = record.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record.sent = time.perf_counter()
        log.sent = index + 1
        try:
            if record.kind == "insert":
                await asyncio.wait_for(client.insert(rule), TIMEOUT_S)
            elif not await asyncio.wait_for(client.remove(rule.rule_id), TIMEOUT_S):
                record.status = WRONG
            log.acked = index + 1
            probe = await asyncio.wait_for(client.classify(packet), TIMEOUT_S)
            record.answer = np.array([-1 if probe["rule_id"] is None else probe["rule_id"]])
            if record.status != WRONG:
                record.status = OK
        except ServerError as exc:
            record.status = OVERLOADED if exc.code == "overloaded" else ERROR
        except asyncio.TimeoutError:
            record.status = TIMEOUT
        except (ConnectionError, OSError):
            record.status = ERROR
        record.done = time.perf_counter()
        if record.status not in (OK, WRONG):
            break
    return records


def check(plan: UpdatePlan, reads, updates, packets, truth) -> None:
    check_windowed(
        reads, lambda k, row: plan.reference(k, tuple(int(v) for v in packets[row]), int(truth[row]))
    )
    for record in updates:
        if record.status != OK:
            continue
        index = int(record.rows[0])
        _kind, _rule, packet, answer = plan.ops[index]
        expected = plan.reference(index + 1, packet, answer)
        if int(record.answer[0]) != expected:
            record.status = WRONG


def run(seed: int, seconds: float, trace: bool) -> Result:
    directory = common.run_dir()
    rules_path, ruleset = common.write_ruleset(seed, directory)
    packets = common.zipf_block(ruleset, seed)
    truth = common.ground_truth(ruleset, packets, "zipf")
    plan = UpdatePlan(ruleset, seed, int(2 * UPDATE_RATE * seconds))
    return asyncio.run(_run(rules_path, packets, truth, plan, seconds, trace, directory))


async def _mix(server, client, plan, packets, seconds):
    from repro.serving.server import AsyncClient

    updater = await AsyncClient.connect("127.0.0.1", server.port)
    log = UpdateLog()
    before = await client.stats()
    began = time.perf_counter_ns()
    with quiet_collector():
        reads, updates = await asyncio.gather(
            classify_open_loop(
                [client], packets, BATCH, CLASSIFY_FPS * BATCH, seconds, TIMEOUT_S, log
            ),
            update_stream(updater, plan, seconds, log),
        )
    ended = time.perf_counter_ns()
    after = await client.stats()
    await updater.close()
    return reads, updates, before, after, began, ended


async def _burst(client, packets, seconds):
    """Closed-loop wire-v2 classify on connection A, before any update."""
    with quiet_collector():
        return await classify_closed_loop(
            [client], packets, BATCH, BURST_DEPTH, seconds, TIMEOUT_S, len(packets) // 2
        )


def burst_pps(bursts: list[list[Record]]) -> float:
    """Packets answered correctly per second over all bursts together."""
    ok = sum(r.status == OK for burst in bursts for r in burst)
    busy = sum(max(r.done for r in burst) - burst[0].due for burst in bursts if burst)
    return BATCH * ok / busy if busy > 0 else 0.0


async def _run(rules_path, packets, truth, plan, seconds, trace, directory) -> Result:
    result = Result()
    setups, bursts, wrong = [], [], 0
    spans_path = f"{directory}/spans-mix.json"
    # Untraced: three launches for setup_s, each with its share of the
    # closed-loop bursts, the last one then measured in the mixed phase.
    # Traced: an untraced reference half-run for the tracing overhead, then
    # a traced server measured for the full run.
    launches = 2 if trace else SETUPS
    mixed_s = seconds if trace else seconds * (1.0 - BURST_SHARE)
    for attempt in range(launches):
        last = attempt == launches - 1
        server, client, setup_s, early_wrong = await launch(
            serve_args(rules_path), packets[:BATCH], truth[:BATCH],
            spans_path if trace and last else None,
        )
        setups.append(setup_s)
        wrong += early_wrong
        try:
            if not trace:
                bursts.append(await _burst(client, packets, seconds * BURST_SHARE / launches))
            if last:
                reads, updates, before, after, began, ended = await _mix(
                    server, client, plan, packets, mixed_s
                )
            elif trace:
                plain, plain_updates, *_ = await _mix(server, client, plan, packets, seconds / 2)
            await client.close()
        finally:
            server.stop()

    check(plan, reads, updates, packets, truth)
    burst_records = [r for burst in bursts for r in burst]
    check_static(burst_records, truth)
    read_s, update_s = summarize(reads), summarize(updates)
    burst_s = summarize(burst_records)
    attempted = read_s.attempted + update_s.attempted + burst_s.attempted
    failed = read_s.failed + update_s.failed + burst_s.failed
    wrong += sum(s.by_status.get(WRONG, 0) for s in (read_s, update_s, burst_s))
    if trace:
        check(plan, plain, plain_updates, packets, truth)
        extra = summarize(plain + plain_updates)
        result.count(extra.attempted, extra.failed, extra.by_status.get(WRONG, 0))
    result.count(attempted, failed, wrong)
    update_tail = common.tail_percentile(len(update_s.latencies_us))
    updates_stats = (after["engine"]["engine"]["updates"], before["engine"]["engine"]["updates"])
    retrains = updates_stats[0]["retrains_completed"] - updates_stats[1]["retrains_completed"]
    # The workload exists to run writes beside reads: a run whose update
    # stream broke off, or that never retrained, did not test what it claims.
    if update_s.by_status.get(OK, 0) != update_s.attempted:
        result.invalid(f"{update_s.attempted - update_s.by_status.get(OK, 0)} of "
                       f"{update_s.attempted} updates failed or were not sent")
    if retrains < 1:
        result.invalid("no background retrain completed in the measured window")
    if not trace:
        result.e2e(
            setup_s=float(np.median(setups)),
            ok_frac=1.0 - failed / attempted,
            classify_pps=burst_pps(bursts),
            classify_p90_us=pct(read_s.latencies_us, 90),
        )
        result.info("burst requests", burst_s.attempted, "count")
    result.info("setup_s", float(np.median(setups)), "s")
    result.info("mix_p50_us", pct(read_s.latencies_us, 50), "us")
    result.info("mix_p90_us", pct(read_s.latencies_us, 90), "us")
    result.info("mix delivered pps (offered 128)", delivered_pps(reads, BATCH), "1/s")
    result.info("update_p50_us", pct(update_s.latencies_us, 50), "us")
    result.info(f"update_p{update_tail:g}_us", pct(update_s.latencies_us, update_tail), "us")
    result.info("fail_frac", failed / attempted, "frac")
    result.info("classify samples", len(read_s.latencies_us), "count")
    result.info("updates completed", update_s.by_status.get(OK, 0), "count")
    result.info("retrains completed", retrains, "count")
    result.info("client late p99 (updates)", pct(update_s.late_us, 99), "us")
    if trace:
        all_spans = load_spans(spans_path)
        spans = [s for s in all_spans if began <= s[2] and s[3] <= ended]
        layers = LayerTotals(spans)
        server_layers(result, layers, reads, before, after)
        result.layer("setup.train_s", setup_train_s(all_spans))
        if layers.calls["updates"]:
            result.layer("updates.apply_us", layers.total_ns("updates") / layers.calls["updates"] / 1e3)
        result.layer("updates.retrains_completed", retrains)
        result.layer(
            "updates.retrain_s",
            updates_stats[0]["retrain_seconds_total"] - updates_stats[1]["retrain_seconds_total"],
        )
        plain_p50 = pct(summarize(plain).latencies_us, 50)
        result.layer("trace.overhead_frac", pct(read_s.latencies_us, 50) / plain_p50 - 1.0)
    return result


def _cache_delta(before: dict, after: dict, key: str) -> int:
    return after["engine"]["cache"][key] - before["engine"]["cache"][key]


def server_layers(result: Result, layers: LayerTotals, records, before: dict, after: dict) -> None:
    """Per-layer metrics of a served run from its spans and ``stats`` deltas."""
    ok = [r for r in records if r.status == OK]
    engine_rows = layers.rows["engine"]
    if engine_rows:
        result.layer("iset.ns_per_pkt", layers.self_ns["iset"] / engine_rows)
        result.layer("remainder.ns_per_pkt", layers.self_ns["remainder"] / engine_rows)
        result.layer("engine.self_ns_per_pkt", layers.self_ns["engine"] / engine_rows)
    if layers.rows["remainder"]:
        result.layer("remainder.useful_frac", layers.useful["remainder"] / layers.rows["remainder"])
    result.layer("flowcache.probe_ns_per_pkt", layers.per_row_ns("flowcache.probe"))
    result.layer("flowcache.fill_ns_per_pkt", layers.per_row_ns("flowcache.fill"))
    hits = _cache_delta(before, after, "hits")
    result.layer("flowcache.hit_frac", hits / max(1, hits + _cache_delta(before, after, "misses")))
    result.layer("flowcache.invalidations", _cache_delta(before, after, "invalidations"))
    result.layer("flowcache.dropped_fills", _cache_delta(before, after, "dropped_fills"))
    result.layer("wire.decode_ns_per_pkt", layers.per_row_ns("wire.decode"))
    result.layer("wire.encode_ns_per_pkt", layers.per_row_ns("wire.encode"))
    service_us = np.asarray(layers.durations_ns["server"], dtype=np.float64) / 1e3
    result.layer("server.service_p50_us", pct(service_us, 50))
    result.layer("server.service_p99_us", pct(service_us, 99))
    stack_us = _stack_us_per_frame(layers)
    client_us = [(r.done - r.sent) * 1e6 for r in ok]
    result.layer("server.outside_engine_us", pct(client_us, 50) - pct(stack_us, 50))
    server_before, server_after = before["server"], after["server"]
    result.layer(
        "budget.rejected_packets",
        server_after["budget"].get("rejected_packets", 0) - server_before["budget"].get("rejected_packets", 0),
    )
    result.layer("batcher.mean_batch", server_after["batcher"].get("mean_batch_size", 0.0))
    result.layer("client.late_p99_us", pct([r.late_us for r in records], 99))
    result.layer(
        "trace.unattributed_frac",
        1.0 - layers.total_ns("server") / 1e3 / max(1e-9, sum(client_us)),
    )
    sharded_rows = layers.rows["sharded"]
    if sharded_rows:
        result.layer("sharded.self_ns_per_pkt", layers.self_ns["sharded"] / sharded_rows)
    calls = layers.calls["sharded.ruleset"]
    result.layer("sharded.ruleset_calls", calls)
    if calls:
        result.layer("sharded.ruleset_ms", layers.total_ns("sharded.ruleset") / calls / 1e6)
    result.layer(
        "sharded.ruleset_share",
        layers.total_ns("sharded.ruleset") / max(1, layers.total_ns("server")),
    )
    if layers.rows["workers"]:
        result.layer("workers.ns_per_pkt", layers.total_ns("workers") / layers.rows["workers"])


def _stack_us_per_frame(layers: LayerTotals) -> list[float]:
    """Per binary frame: time in the engine stack (the server span's
    children that run on the engine executor)."""
    server_ids = {s[0] for s in layers.spans if s[1] == "server"}
    stack: dict[int, int] = {}
    for span in layers.spans:
        if span[4] in server_ids and span[1] in ("flowcache", "sharded", "engine"):
            stack[span[4]] = stack.get(span[4], 0) + span[3] - span[2]
    return [ns / 1e3 for ns in stack.values()]
