"""The result of one benchmark run and its printed form.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json`` (end-to-end metrics untraced, per-layer
metrics traced).  A per-layer metric whose layer the workload never crosses
reads 0.  The lines before it repeat the metrics by name and unit together
with information-only figures.
"""

from __future__ import annotations

import json
import os

from common import ROOT


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.infos: list[tuple[str, float, str]] = []
        #: Reasons the run did not exercise what its workload requires.
        self.problems: list[str] = []

    def count(self, attempted: int, failed: int, wrong: int | None = None) -> None:
        """Add operations; ``wrong`` (default: all failures) are wrong answers."""
        self.attempted += attempted
        self.failed += failed
        self.wrong += failed if wrong is None else wrong

    def invalid(self, reason: str) -> None:
        """Mark the run not correct for ``reason``."""
        self.problems.append(reason)

    def e2e(self, **values: float) -> None:
        self.metrics.update(values)

    def layer(self, name: str, value: float) -> None:
        self.layers[name] = float(value)

    def info(self, name: str, value: float, unit: str) -> None:
        self.infos.append((name, float(value), unit))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def render(result: Result, workload: str, trace: bool) -> str:
    spec = load_spec()
    if trace:
        metrics = {
            m["name"]: {"value": result.layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    lines = [f"# {workload} ({'traced' if trace else 'untraced'})"]
    for name, item in metrics.items():
        lines.append(f"{name:34s} {item['value']:>16.6g} {item['unit']}")
    lines.append("# information only")
    for name, value, unit in result.infos:
        lines.append(f"{name:34s} {value:>16.6g} {unit}")
    lines.append(f"# attempted {result.attempted}, failed {result.failed}, wrong {result.wrong}")
    lines += [f"# not correct: {problem}" for problem in result.problems]
    lines.append(json.dumps({
        "correct": result.wrong == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return "\n".join(lines)
