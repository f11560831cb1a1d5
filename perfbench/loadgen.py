"""Load generator (open and closed loop) and answer checker over ``AsyncClient``.

``repro.workloads.loadgen.open_loop_load`` cannot serve the benchmark: it
keeps no per-response answers (so nothing can be checked), it copies each
batch's latency once per packet (inflating the sample count), and it does not
report how late its generator ran.  This generator keeps one record per request:
when it was due, when it was actually sent, when its response arrived, its
outcome and its answer.  Latency is measured from the due time, so a stall
also delays every request scheduled behind it.

Outcomes: ``ok``, ``wrong`` (an answer that no valid rule-set state gives),
``overloaded`` (shed by the server), ``error``, ``timeout`` and ``skipped``
(scheduled but never sent, because an earlier request it depends on failed).
Everything but ``ok`` is a failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import time
from dataclasses import dataclass, field

import numpy as np

PENDING, OK, WRONG = "pending", "ok", "wrong"
OVERLOADED, ERROR, TIMEOUT, SKIPPED = "overloaded", "error", "timeout", "skipped"


@dataclass
class Record:
    """One request: schedule, timing, outcome and answer."""

    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = PENDING
    rows: np.ndarray | None = None  #: trace rows the request carried
    answer: np.ndarray | None = None  #: rule ids returned (-1 on a miss)
    #: Update states the answer may reflect: [last acked at send, last sent
    #: at response] (always (0, 0) when no update stream runs).
    states: tuple[int, int] = (0, 0)

    @property
    def latency_us(self) -> float:
        return (self.done - self.due) * 1e6

    @property
    def late_us(self) -> float:
        return (self.sent - self.due) * 1e6


@dataclass
class UpdateLog:
    """Update progress shared with the classify stream: ``sent`` counts
    updates handed to the connection, ``acked`` those acknowledged."""

    sent: int = 0
    acked: int = 0


async def _rule_ids(client, block: np.ndarray) -> np.ndarray:
    answers = await client.classify_batch(block)
    return np.array(
        [-1 if a["rule_id"] is None else a["rule_id"] for a in answers], dtype=np.int64
    )


async def send_classify(client, record: Record, block: np.ndarray,
                        log: UpdateLog | None = None) -> None:
    """Send one classify batch and fill in ``record``; raises only on
    cancellation (see :func:`finish`)."""
    from repro.serving.server import ServerError

    acked_at_send = log.acked if log is not None else 0
    record.sent = time.perf_counter()
    try:
        record.answer = await _rule_ids(client, block)
        record.status = OK
    except ServerError as exc:
        record.status = OVERLOADED if exc.code == "overloaded" else ERROR
    except (ConnectionError, OSError, RuntimeError):
        record.status = ERROR
    record.done = time.perf_counter()
    record.states = (acked_at_send, log.sent if log is not None else 0)


async def finish(tasks: list, records: list[Record], timeout: float) -> None:
    """Wait up to ``timeout`` seconds for the outstanding requests; those
    still unanswered are cancelled and count as timeouts.  One deadline for
    the batch keeps a per-request timer task off the generator's loop."""
    if not tasks:
        return
    _done, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    now = time.perf_counter()
    for record in records:
        if record.status == PENDING:
            record.status, record.done = TIMEOUT, now


async def classify_open_loop(
    clients,
    trace: np.ndarray,
    batch: int,
    rate_pps: float,
    duration: float,
    timeout: float,
    log: UpdateLog | None = None,
    start_row: int = 0,
) -> list[Record]:
    """Offer ``rate_pps`` packets/s in ``batch``-row requests for ``duration``
    seconds, round-robin over ``clients``; then waits up to ``timeout``
    seconds for the responses."""
    interval = batch / rate_pps
    count = max(1, int(duration / interval))
    records: list[Record] = []
    tasks = []
    start = time.perf_counter() + 0.005
    for i in range(count):
        due = start + i * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        first = (start_row + i * batch) % (len(trace) - batch + 1)
        rows = np.arange(first, first + batch)
        record = Record("classify", due, rows=rows)
        records.append(record)
        tasks.append(asyncio.ensure_future(
            send_classify(clients[i % len(clients)], record, trace[rows], log)
        ))
    await finish(tasks, records, timeout)
    return records


async def classify_closed_loop(
    clients, trace: np.ndarray, batch: int, depth: int, duration: float, timeout: float,
    start_row: int = 0,
) -> list[Record]:
    """Keep ``depth`` requests outstanding on every client for ``duration``
    seconds; each request is due when its predecessor completed."""
    stop = time.perf_counter() + duration
    records: list[Record] = []
    lanes = depth * len(clients)

    async def lane(index: int) -> None:
        client = clients[index % len(clients)]
        while time.perf_counter() < stop:
            first = (start_row + index * batch) % (len(trace) - batch + 1)
            rows = np.arange(first, first + batch)
            record = Record("classify", time.perf_counter(), rows=rows)
            records.append(record)
            await send_classify(client, record, trace[rows])
            index += lanes

    await finish([asyncio.ensure_future(lane(k)) for k in range(lanes)], records,
                 duration + timeout)
    return records


def delivered_pps(records: list[Record], batch: int) -> float:
    """Packets answered correctly per second, from the first due time to
    the last correct response."""
    ok = [r for r in records if r.status == OK]
    if not ok:
        return 0.0
    return batch * len(ok) / (max(r.done for r in ok) - records[0].due)


@contextlib.contextmanager
def quiet_collector():
    """No garbage collection in the load generator while it measures: a
    full collection over the benchmark's own objects would stall it for
    milliseconds and show up as server latency."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def check_static(records: list[Record], truth: np.ndarray) -> None:
    """Mark ``ok`` records whose answer differs from ``truth`` as ``wrong``."""
    for record in records:
        if record.status == OK and not np.array_equal(record.answer, truth[record.rows]):
            record.status = WRONG


def check_windowed(records: list[Record], reference) -> None:
    """Mark ``ok`` records ``wrong`` unless every answer equals
    ``reference(state, row)`` for some state in the record's window."""
    for record in records:
        if record.status != OK:
            continue
        first, last = record.states
        for row, answer in zip(record.rows, record.answer):
            if not any(reference(k, int(row)) == answer for k in range(first, last + 1)):
                record.status = WRONG
                break


@dataclass
class Summary:
    """Outcome counts and latency percentiles of a set of records."""

    attempted: int = 0
    failed: int = 0
    by_status: dict = field(default_factory=dict)
    latencies_us: list = field(default_factory=list)
    late_us: list = field(default_factory=list)


def summarize(records: list[Record]) -> Summary:
    summary = Summary(attempted=len(records))
    for record in records:
        summary.by_status[record.status] = summary.by_status.get(record.status, 0) + 1
        if record.status != SKIPPED:
            summary.late_us.append(record.late_us)
        if record.status == OK:
            summary.latencies_us.append(record.latency_us)
        else:
            summary.failed += 1
    return summary
