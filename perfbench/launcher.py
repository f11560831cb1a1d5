"""Run the unmodified ``repro`` CLI in this process, optionally traced.

Usage::

    python3 perfbench/launcher.py [--spans OUT.json] -- serve RULES --listen ...

The benchmark starts ``repro serve`` through this file rather than
``python -m repro`` for three reasons:

* SIGINT is reset to Python's default handler.  A harness started in the
  background inherits SIG_IGN, and ``repro serve`` would then never run its
  shutdown path (which prints the final statistics and closes the shard
  workers and their shared-memory segments).
* With ``--spans`` the layer span wrappers are installed before
  ``repro.cli.main`` runs, and the spans are written to OUT when it returns.
  Shard worker processes are not traced; the parent's calls into the worker
  runtime cover them from outside.
* Everything runs under the ``__main__`` guard: shard workers start with the
  spawn method, which imports this file again in every worker.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from repro.cli import main as repro_main

    recorder = None
    if spans_path is not None:
        from spans import SpanRecorder, install_layer_spans

        recorder = SpanRecorder()
        install_layer_spans(recorder)
    try:
        return repro_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
