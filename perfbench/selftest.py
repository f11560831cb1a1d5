"""Tests of the benchmark's own load generator and answer checker.

Run from the root of a checkout::

    python3 perfbench/selftest.py

No server is started: a fake client stands in for ``AsyncClient``.
"""

from __future__ import annotations

import asyncio
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import common  # noqa: E402

common.import_repro()

from repro.serving.server import ServerError  # noqa: E402

import loadgen  # noqa: E402
import mix  # noqa: E402
from loadgen import (  # noqa: E402
    ERROR, OK, OVERLOADED, SKIPPED, TIMEOUT, WRONG, Record, UpdateLog, check_static,
    check_windowed, classify_open_loop, summarize,
)

TRUTH = np.arange(100, dtype=np.int64)
TRACE = np.arange(100 * 5, dtype=np.uint64).reshape(100, 5)


class FakeClient:
    """Answers rows by their index into TRACE, with a chosen misbehaviour."""

    def __init__(self, mode: str = "ok"):
        self.mode = mode

    async def classify_batch(self, block):
        if self.mode == "shed":
            raise ServerError("overloaded", code="overloaded")
        if self.mode == "stall":
            await asyncio.sleep(10)
        rows = (block[:, 0] // 5).astype(np.int64)
        if self.mode == "wrong":
            rows = rows + 1
        return [{"rule_id": int(r), "matched": True, "priority": int(r)} for r in rows]


def drive(mode: str, timeout: float = 1.0):
    async def main():
        return await classify_open_loop(
            [FakeClient(mode)], TRACE, batch=4, rate_pps=400, duration=0.05, timeout=timeout
        )

    records = asyncio.run(main())
    check_static(records, TRUTH)
    return records, summarize(records)


class LoadGeneratorCountsFailures(unittest.TestCase):
    def test_correct_answers_are_ok(self):
        records, summary = drive("ok")
        self.assertEqual(summary.failed, 0)
        self.assertEqual(len(summary.latencies_us), len(records))
        self.assertTrue(all(r.status == OK for r in records))

    def test_wrong_answer_is_a_failure(self):
        records, summary = drive("wrong")
        self.assertEqual(summary.failed, len(records))
        self.assertEqual(summary.by_status, {WRONG: len(records)})
        self.assertEqual(summary.latencies_us, [])

    def test_shed_is_a_failure(self):
        records, summary = drive("shed")
        self.assertEqual(summary.by_status, {OVERLOADED: len(records)})
        self.assertEqual(summary.failed, len(records))

    def test_timeout_is_a_failure(self):
        records, summary = drive("stall", timeout=0.05)
        self.assertEqual(summary.by_status, {TIMEOUT: len(records)})
        self.assertEqual(summary.failed, len(records))

    def test_one_sample_per_request_and_lateness(self):
        records, summary = drive("ok")
        self.assertEqual(len(records), 5)  # 400 pps / 4 rows for 50 ms
        self.assertEqual(len(summary.late_us), len(records))
        self.assertTrue(all(r.sent >= r.due - 1e-6 for r in records))


class WindowedCheck(unittest.TestCase):
    """An answer is correct if some state between the last update acked
    before the send and the last update sent before the response gives it."""

    @staticmethod
    def reference(state, row):
        return 10 * state + row

    def record(self, answer, states):
        return Record("classify", 0.0, status=OK, rows=np.array([1]),
                      answer=np.array([answer]), states=states)

    def test_answer_inside_window(self):
        records = [self.record(21, (1, 3)), self.record(31, (1, 3))]
        check_windowed(records, self.reference)
        self.assertEqual([r.status for r in records], [OK, OK])

    def test_answer_outside_window(self):
        records = [self.record(1, (1, 3)), self.record(41, (1, 3))]
        check_windowed(records, self.reference)
        self.assertEqual([r.status for r in records], [WRONG, WRONG])

    def test_window_follows_the_update_log(self):
        log = UpdateLog(sent=3, acked=2)

        async def main():
            record = Record("classify", 0.0)
            await loadgen.send_classify(FakeClient(), record, TRACE[:2], log)
            return record

        record = asyncio.run(main())
        self.assertEqual(record.states, (2, 3))


class FakeUpdater:
    """An update connection whose inserts fail from the ``fail_at``-th on."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.inserts = 0

    async def insert(self, rule):
        self.inserts += 1
        if self.inserts > self.fail_at:
            raise ServerError("broken", code="internal")

    async def classify(self, packet):
        return {"rule_id": 7, "matched": True, "priority": 7}


class UpdateStreamCountsFailures(unittest.TestCase):
    """Every update scheduled in the window is attempted; after a failed
    update the stream stops and the rest count as failures too."""

    class Plan:
        ops = [("insert", None, (0,), 7)] * 100

    def stream(self, fail_at: int):
        log = UpdateLog()
        seconds = 10 / mix.UPDATE_RATE  # ten updates
        records = asyncio.run(mix.update_stream(FakeUpdater(fail_at), self.Plan(), seconds, log))
        return records, summarize(records), log

    def test_all_updates_ok(self):
        records, summary, log = self.stream(fail_at=100)
        self.assertEqual((summary.attempted, summary.failed), (10, 0))
        self.assertEqual((log.sent, log.acked), (10, 10))

    def test_unsent_updates_are_failures(self):
        records, summary, log = self.stream(fail_at=3)
        self.assertEqual(summary.attempted, 10)
        self.assertEqual(summary.by_status, {OK: 3, ERROR: 1, SKIPPED: 6})
        self.assertEqual(summary.failed, 7)
        self.assertEqual(len(summary.late_us), 4)  # only the updates sent
        self.assertEqual((log.sent, log.acked), (4, 3))


if __name__ == "__main__":
    unittest.main()
