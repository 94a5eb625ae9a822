"""Span recording, self time, and process-tree CPU time and memory sampling.

Spans are recorded only around the benchmark's own calls into the package's
public functions. A span holds a name, start, end, parent span and run id;
spans stay in memory and are written out once, when the run ends. Self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans on one thread. A disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj, method: str, name: str, annotate=None) -> None:
        """Record a span around every call of ``obj.method`` (this instance
        only), including calls the package makes internally. ``annotate``
        maps the call's result to extra fields stored on its span."""
        fn = getattr(obj, method)

        def traced(*a, **kw):
            with self.span(name) as rec:
                out = fn(*a, **kw)
                if rec is not None and annotate is not None:
                    rec.update(annotate(out))
                return out

        setattr(obj, method, traced)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def children(self, span: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span["id"]]

    def self_time(self, span: dict) -> float:
        dur = span["end"] - span["start"]
        return dur - sum(c["end"] - c["start"] for c in self.children(span))

    def self_times_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + self.self_time(s)
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": self.spans}, f, default=str)


# ---------------------------------------------------------------------------
# process tree (Linux /proc): memory of the driver plus every Ray process it
# started, and a clean stop of all of them
# ---------------------------------------------------------------------------
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _proc_table() -> dict[int, tuple[int, str]]:
    """pid → (ppid, state) for every visible process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                s = f.read()
        except OSError:
            continue
        rest = s[s.rfind(")") + 2 :].split()
        out[int(d)] = (int(rest[1]), rest[0])
    return out


def descendants(root: int) -> list[int]:
    table = _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def cpu_ns(pids: list[int]) -> dict[int, int]:
    """pid → nanoseconds it has run on a CPU (``/proc/<pid>/schedstat``). The
    kernel leaves out time the hypervisor gave to other guests (steal), so
    this does not grow when a co-tenant takes the core."""
    out = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/schedstat") as f:
                out[pid] = int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return out


def _reaped_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Clock:
    """Wall and CPU seconds of the timed parts of an operation.

    CPU seconds are those of this process and every process below it (the Ray
    processes), plus children it waited for. A process that starts inside a
    part counts from 0; a Ray process that ends inside one loses its share.
    ``part()`` adds to ``wall``, ``cpu`` and ``started`` (processes that
    started inside a part) until ``reset()``.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.started = 0

    @contextmanager
    def part(self):
        me = os.getpid()
        cpu0 = cpu_ns([me] + descendants(me))
        reaped0 = _reaped_cpu_s()
        t0 = time.perf_counter()
        rec = {}
        try:
            yield rec
        finally:
            rec["wall"] = time.perf_counter() - t0
            now = cpu_ns([me] + descendants(me))
            rec["cpu"] = (
                sum(v - cpu0.get(p, 0) for p, v in now.items()) / 1e9
                + _reaped_cpu_s() - reaped0
            )
            self.wall += rec["wall"]
            self.cpu += rec["cpu"]
            self.started += len(now.keys() - cpu0.keys())


def rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except OSError:
            pass
    return total


class PeakRss:
    """Samples the resident memory of this process and its descendants every
    ``interval`` seconds while running; ``peak_mb`` is the largest sample."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        self.peak = max(self.peak, rss_bytes([me] + descendants(me)))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return False
    return s[s.rfind(")") + 2] not in "ZX"


def stop_all(pids: list[int], timeout: float = 20.0) -> list[int]:
    """Wait for ``pids`` to exit; SIGKILL what is left after ``timeout`` and
    wait again. Returns the pids that would not die."""
    deadline = time.time() + timeout
    while time.time() < deadline and any(_alive(p) for p in pids):
        time.sleep(0.1)
    left = [p for p in pids if _alive(p)]
    for p in left:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.time() + 5
    while time.time() < deadline and any(_alive(p) for p in left):
        time.sleep(0.1)
    return [p for p in left if _alive(p)]
