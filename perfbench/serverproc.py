"""Start ``repro serve`` in a subprocess through ``launcher.py`` and tear it
down with a leak check.

Teardown sends SIGINT (the CLI's documented shutdown), waits for the server
to exit, and then fails loudly if any of its child processes (shard workers,
the shared-memory resource tracker) survive it, or any of its shared-memory
segments: the ``/dev/shm`` entries named ``rqw<server pid in hex>x...``
(``ShardWorkerRuntime``).  Other ``/dev/shm`` entries that appeared meanwhile
(multiprocessing semaphores, which carry no owner in their names, or another
program's segments) are reported on standard error and left alone.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

from common import HERE, ROOT, SRC

LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")
SHM_DIR = "/dev/shm"


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


class TeardownLeak(RuntimeError):
    """The server left processes or shared-memory segments behind."""


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class ServerProcess:
    """One ``repro serve --listen`` process, started by :meth:`start`."""

    def __init__(self, serve_args: list[str], spans_path: str | None = None):
        command = [sys.executable, os.path.join(HERE, "launcher.py")]
        if spans_path is not None:
            command += ["--spans", spans_path]
        self.command = command + ["--", "serve", *serve_args]
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.stderr_lines: list[str] = []
        self._ready = threading.Event()
        self._workers: set[int] = set()
        self._shm_before: set[str] = set()

    def start(self, timeout: float = 120.0) -> int:
        """Launch and wait for the listening line; returns the port."""
        env = dict(os.environ, PYTHONPATH=SRC)
        self._shm_before = _shm_entries()
        self.proc = subprocess.Popen(
            self.command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        threading.Thread(target=self._read_stderr, daemon=True).start()
        if not self._ready.wait(timeout) or self.port is None:
            self.kill()
            raise RuntimeError(
                "repro serve did not start:\n" + "".join(self.stderr_lines[-20:])
            )
        return self.port

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append(line)
            found = LISTENING.search(line)
            if found and self.port is None:
                self.port = int(found.group(2))
                self._ready.set()
        self._ready.set()

    def note_workers(self) -> None:
        """Remember the server's current children for the teardown check."""
        self._workers.update(_children(self.proc.pid))

    def stop(self, timeout: float = 60.0) -> None:
        """SIGINT, wait, and raise :class:`TeardownLeak` on any survivor."""
        if self.proc is None:
            return
        pid = self.proc.pid
        self.note_workers()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise TeardownLeak(f"repro serve (pid {pid}) ignored SIGINT for {timeout}s")
        deadline = time.monotonic() + 10.0
        while True:
            survivors = [child for child in self._workers if _alive(child)]
            segments = self._own_segments()
            if not survivors and not segments:
                break
            if time.monotonic() > deadline:
                self.kill()
                raise TeardownLeak(
                    f"repro serve (pid {pid}) left processes {survivors} and "
                    f"/dev/shm entries {segments}"
                )
            time.sleep(0.05)
        others = sorted(_shm_entries() - self._shm_before)
        if others:
            print(f"note: /dev/shm entries not named for repro serve (pid {pid}) "
                  f"appeared during its run: {others}", file=sys.stderr)
        self.proc = None

    def _own_segments(self) -> list[str]:
        """The server's shared-memory segments (``ShardWorkerRuntime`` names
        them ``rqw<pid in hex>x...``)."""
        prefix = f"rqw{self.proc.pid:x}x"
        return sorted(name for name in _shm_entries() if name.startswith(prefix))

    def kill(self) -> None:
        """Last-resort cleanup: SIGKILL the server and every child noted, and
        unlink the server's own segments, which a killed server cannot
        release itself."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.note_workers()
        for pid in [self.proc.pid, *self._workers]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while any(_alive(child) for child in self._workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        for name in self._own_segments():
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except FileNotFoundError:
                pass
        self.proc = None


async def launch(serve_args: list[str], probe, expected, spans_path: str | None = None):
    """Start a server and time it up to its first correct classify response.

    Returns ``(server, client, setup_s, wrong)``: the connected v2 client,
    seconds from launch to the first response equal to ``expected``, and
    how many wrong responses came before it.  Lazily started shard workers
    are inside that interval.
    """
    from repro.serving.server import AsyncClient

    server = ServerProcess(serve_args, spans_path)
    began = time.perf_counter()
    try:
        port = server.start()
        client = await AsyncClient.connect("127.0.0.1", port)
        wrong = 0
        while True:
            answers = await client.classify_batch(probe)
            got = [-1 if a["rule_id"] is None else a["rule_id"] for a in answers]
            if got == list(expected):
                break
            wrong += 1
            if wrong >= 5:
                raise RuntimeError("repro serve keeps answering the first probe wrongly")
        setup_s = time.perf_counter() - began
        if not client.wire_v2:
            raise RuntimeError("repro serve did not grant wire protocol v2")
    except BaseException:
        server.kill()
        raise
    server.note_workers()
    return server, client, setup_s, wrong
