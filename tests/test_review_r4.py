"""Regression tests for the round-4 code-review findings: the IVF sample
gate overflow, the manifest put-if-absent CAS per backend, GC's unknown-mtime
fallback, and routing freeze during backlog waves."""

import os
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from radiant_portal_pipeline_ray.pipelines.similarity import _ivf_training_sample
from radiant_portal_pipeline_ray.state.manifest import Lake


def test_ivf_sample_admit_all_regime(tmp_path):
    """sample_limit < n <= 3*sample_limit puts the hash gate at rate 1.0,
    which used to overflow uint64 (int(1.0 * (2^64-1)) rounds to 2^64)."""
    p = str(tmp_path / "e.parquet")
    rng = np.random.default_rng(0)
    n = 250
    t = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(
                rng.normal(size=(n, 8)).tolist(), pa.list_(pa.float32())
            ),
        }
    )
    pq.write_table(t, p)
    s = _ivf_training_sample(p, 100)
    assert s.shape == (100, 8)


def test_memory_cas_exactly_one_winner(tmp_path):
    """Racing threads publishing the same manifest version through a
    memory:// lake: exactly one _put_manifest_if_absent returns True."""
    import fsspec

    fs = fsspec.filesystem("memory")
    root = "/graft-cas-race"
    if fs.exists(root):
        fs.rm(root, recursive=True)
    lake = Lake("memory://graft-cas-race")
    final = lake._manifest_path(1)
    wins = []
    barrier = threading.Barrier(8)

    def attempt(i: int):
        barrier.wait()
        if lake._put_manifest_if_absent(final, f"writer-{i}".encode(), f"t{i}"):
            wins.append(i)

    threads = [threading.Thread(target=attempt, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1
    # the stored bytes are the winner's, not a later overwrite
    assert lake.filesystem.cat_file(final) == f"writer-{wins[0]}".encode()


def test_file_protocol_uses_hardlink_cas(tmp_path):
    """A file:// lake goes through the POSIX hard-link CAS — the loser sees
    False and the winner's bytes survive."""
    lake = Lake(f"file://{tmp_path}/lake")
    final = lake._manifest_path(1)
    assert lake._put_manifest_if_absent(final, b"first", "t1") is True
    assert lake._put_manifest_if_absent(final, b"second", "t2") is False
    assert lake.filesystem.cat_file(final) == b"first"


def test_unknown_protocol_refuses_unsafe_probe(monkeypatch, tmp_path):
    """Backends without a known conditional-PUT must refuse rather than run
    the racy exists->put->read-back probe."""
    lake = Lake(f"file://{tmp_path}/lake2")
    monkeypatch.setattr(type(lake.filesystem), "protocol", "weirdstore")
    with pytest.raises(NotImplementedError):
        lake._put_manifest_if_absent(lake._manifest_path(1), b"x", "t")


def test_gc_mtime_fallback_is_conservative(tmp_path, monkeypatch):
    """_mtime returns the caller's default when the backend can't say; GC
    passes now for files so an unknown-age file reads as brand new."""
    lake = Lake(f"file://{tmp_path}/lake3")

    def boom(path):
        raise NotImplementedError

    # fsspec caches filesystem instances: a plain assignment would outlive
    # this test on the LocalFileSystem every later file:// lake shares
    monkeypatch.setattr(lake.filesystem, "modified", boom)
    assert lake._mtime("anything", default=123.5) == 123.5
    assert lake._mtime("anything") == 0.0


def test_backlog_freezes_routing_until_done(ray_session, tmp_path):
    """No mid-backlog salting commits: every data manifest committed by a
    backlog keeps the pre-backlog salt_map; decisions land in one final
    routing-only version."""
    from radiant_portal_pipeline_ray.config import EngineConfig
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

    def _write_job(d: str, n: int, lsn0: int) -> dict:
        os.makedirs(d, exist_ok=True)
        t = pa.table(
            {
                "url": [f"https://hot.org/p/{i:05d}" for i in range(n)],
                "warc_ts": pa.array([1_700_000_000 + i for i in range(n)],
                                    pa.timestamp("us")),
                "html": pa.array([b"<p>x</p>"] * n, pa.binary()),
                "op": ["I"] * n,
                "lsn": pa.array([lsn0 + i for i in range(n)], pa.int64()),
            }
        )
        p = os.path.join(d, "b0.parquet")
        pq.write_table(t, p)
        return {"paths": [p]}

    cfg = EngineConfig(n_parts=4, salt_threshold_rows=20, salt_target_rows=10)
    eng = CdcEngine(str(tmp_path / "lake"), cfg)
    jobs = [
        _write_job(str(tmp_path / "j1"), 40, 0),
        _write_job(str(tmp_path / "j2"), 40, 1000),
    ]
    eng.apply_backlog(jobs, max_concurrency=2)
    lake = eng.lake
    versions = lake.versions()
    mans = [lake.read_manifest(v) for v in versions]
    data_mans = [m for m in mans if not m.metrics.get("routing_only")]
    routing_mans = [m for m in mans if m.metrics.get("routing_only")]
    # the hot domain crossed the threshold in wave data, but no DATA commit
    # changed the salt map — the decision is the final routing-only commit
    assert all(m.salt_map == {} for m in data_mans)
    assert len(routing_mans) == 1
    assert "hot.org" in routing_mans[-1].salt_map
    assert "hot.org" in routing_mans[-1].pending_migrations


class _FakeS3FS:
    """Minimal fsspec-shaped stand-in for s3fs: pipe_file honors S3's
    If-None-Match conditional PUT (412 on existing key). Exercises the
    Lake CAS branch that real S3 would take."""

    protocol = "s3"

    def __init__(self):
        self.store: dict[str, bytes] = {}
        self.race_hook = None  # called between the condition check and the put

    def pipe_file(self, path, data, **kw):
        if kw.get("IfNoneMatch") == "*":
            if path in self.store:
                raise OSError("PreconditionFailed: 412")
            if self.race_hook:
                self.race_hook()
                if path in self.store:  # S3 evaluates atomically; model it
                    raise OSError("PreconditionFailed: 412")
        self.store[path] = bytes(data)

    def cat_file(self, path):
        return self.store[path]

    def exists(self, path):
        return path in self.store

    def makedirs(self, path, exist_ok=True):
        pass


def test_s3_conditional_put_branch(tmp_path):
    """The s3 protocol branch publishes via If-None-Match and maps the 412
    PreconditionFailed to a clean loser (False), leaving the winner's bytes."""
    lake = Lake.__new__(Lake)
    lake.filesystem = _FakeS3FS()
    final = "bucket/lake/manifests/manifest-v000000000001.json"
    assert lake._put_manifest_if_absent(final, b"A", "ta") is True
    assert lake._put_manifest_if_absent(final, b"B", "tb") is False
    assert lake.filesystem.cat_file(final) == b"A"

    # interleaved race: B lands between A's check and A's put — A sees 412
    fs2 = _FakeS3FS()
    lake.filesystem = fs2

    def sneak():
        fs2.store[final] = b"B-won"

    fs2.race_hook = sneak
    assert lake._put_manifest_if_absent(final, b"A", "ta") is False
    assert fs2.cat_file(final) == b"B-won"
