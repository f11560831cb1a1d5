"""Inputs, ground truth and statistics shared by the benchmark's workloads.

Every input derives from the workload seed: the acl1 rule-set, the traces and
the update stream.  The program under test receives only the generated
rule-set file and the packets.  Ground truth comes from
``LinearSearchClassifier`` over unique packets, computed outside every timed
region and cached by rule-set and packets under ``.perfbench_cache/`` in the
checkout.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")

#: The rule-set every workload uses: ClassBench acl1, 8,000 rules.
APPLICATION = "acl1"
NUM_RULES = 8000
#: The uniform trace of the offline workload and its block size.
UNIFORM_PACKETS = 20_000
BLOCK_ROWS = 512
#: The zipf-95 trace of update-mix: one flow per rule, of which a
#: 60k-packet draw touches about 3.7k.
ZIPF_PACKETS = 60_000
ZIPF_SKEW = 95
#: update-mix: packets per wire-v2 classify request, and flow-cache entries
#: (``repro serve --cache-size``).
BATCH = 32
CACHE_SIZE = 4096
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no ``src/repro``)."""


def import_repro():
    """Put the checkout's ``src`` on the path; fail if it holds no repro."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    return repro


def nm_config():
    """The ``NuevoMatchConfig`` that ``repro serve`` builds (error threshold 64)."""
    from repro.core.config import NuevoMatchConfig, RQRMIConfig

    return NuevoMatchConfig(
        max_isets=4,
        min_iset_coverage=0.05,
        rqrmi=RQRMIConfig(error_threshold=64),
    )


def run_dir() -> str:
    path = os.path.join(CACHE, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def write_ruleset(seed: int, directory: str):
    """Generate the seed's rule-set, write it, and parse it back.

    The parsed rule-set is what ``repro serve`` sees (the ClassBench format
    renumbers priorities and ids by line), so ground truth uses it too.
    """
    from repro.rules.classbench import generate_classbench
    from repro.rules.parser import parse_classbench_file, write_classbench_file

    path = os.path.join(directory, f"acl1-{NUM_RULES}-s{seed}.rules")
    write_classbench_file(generate_classbench(APPLICATION, NUM_RULES, seed=seed), path)
    return path, parse_classbench_file(path)


def packet_array(trace) -> np.ndarray:
    return np.array([packet.values for packet in trace.packets], dtype=np.uint64)


def uniform_block(ruleset, seed: int) -> np.ndarray:
    from repro.traffic.generators import generate_uniform_trace

    return packet_array(generate_uniform_trace(ruleset, UNIFORM_PACKETS, seed=seed))


def zipf_block(ruleset, seed: int) -> np.ndarray:
    from repro.traffic.generators import generate_zipf_trace

    return packet_array(
        generate_zipf_trace(ruleset, ZIPF_PACKETS, top3_share=ZIPF_SKEW, seed=seed)
    )


def ground_truth(ruleset, block: np.ndarray, tag: str) -> np.ndarray:
    """Best rule id per row by ``LinearSearchClassifier`` (-1 on a miss).

    Classifies unique rows only and caches the answer keyed by the rule-set
    and the block contents.
    """
    from repro.classifiers.linear import LinearSearchClassifier

    digest = hashlib.sha256()
    for rule in ruleset:
        digest.update(repr((rule.ranges, rule.priority, rule.rule_id)).encode())
    digest.update(np.ascontiguousarray(block).tobytes())
    os.makedirs(CACHE, exist_ok=True)
    path = os.path.join(CACHE, f"truth-{tag}-{digest.hexdigest()[:20]}.npy")
    if os.path.exists(path):
        return np.load(path)
    unique, inverse = np.unique(block, axis=0, return_inverse=True)
    rule_ids, _priorities = LinearSearchClassifier(ruleset).classify_block(unique)
    truth = np.asarray(rule_ids, dtype=np.int64)[inverse.reshape(-1)]
    np.save(path + ".tmp.npy", truth)
    os.replace(path + ".tmp.npy", path)
    return truth


def tail_percentile(samples: int) -> float:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond."""
    for pct in (99.0, 95.0, 90.0, 75.0):
        if samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0
