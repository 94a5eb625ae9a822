"""Worker-crash injection for exactly-once tests.

The CDC apply's fault-tolerance story rests on three mechanical facts:
Ray retries a task whose worker process dies (default ``max_retries=3``),
snapshot files are written at their final keys under deterministic names
(``{txn}-{part}-{i:04d}``, so a retry OVERWRITES its own partial output,
before the publish, instead of orphaning it), and the manifest commit is
a single put-if-absent CAS. ``maybe_die_once`` turns those claims into
something a test can force: the first task that reaches an injection
point after the sentinel directory is empty records a sentinel file and
hard-exits its worker process (``os._exit`` — a real worker death, not a
retryable Python exception), and every later attempt sails through. ``tests/test_chaos.py`` asserts the resulting snapshot is
byte-identical to a no-fault run.

Reference analogue: the reference leans on Airflow task retries plus
Iceberg optimistic commits for the same guarantee
(`radiant/tasks/iceberg/utils.py:61-96`); this module is the local-sandbox
stand-in for "kubelet OOM-kills an extraction pod mid-write".

Production never sets ``EngineConfig.fault_inject`` — the hook is inert
(one ``is None`` check) unless a test points it at a scratch directory.
"""

from __future__ import annotations

import os


def maybe_die_once(fault: tuple | None, phase: str) -> None:
    """Kill this worker process once per sentinel dir, then never again.

    ``fault`` is ``(phase, sentinel_dir)`` from ``EngineConfig.fault_inject``;
    a no-op unless ``phase`` matches the caller's phase. O_CREAT|O_EXCL makes
    exactly one concurrent task win the right to die, so the test knows
    precisely one worker was lost.
    """
    if fault is None or fault[0] != phase:
        return
    # never kill a DRIVER: small exchanges, and small apply rounds on one
    # CPU, legally run driver-local (the 16 MB threshold in taskshuffle),
    # and ``os._exit`` there would take the whole application down instead
    # of simulating a lost worker
    try:
        import ray
        from ray._private.worker import global_worker

        if global_worker.mode != ray.WORKER_MODE:
            return
    except Exception:
        return
    sentinel = os.path.join(fault[1], "died")
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.write(fd, f"{phase}:{os.getpid()}".encode())
    os.close(fd)
    os._exit(1)
