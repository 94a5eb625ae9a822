import json
import os
import time

import pyarrow as pa
import pytest

from radiant_portal_pipeline_ray.schemas import CHANGELOG_SCHEMA
from radiant_portal_pipeline_ray.state.manifest import (
    CommitConflict,
    Lake,
    Manifest,
    PartitionState,
    changed_partitions,
)


def _manifest(lake, version, txn, parent=None):
    return Manifest(
        version=version,
        txn_id=txn,
        parent_version=parent,
        schema=CHANGELOG_SCHEMA,
        partitions={0: PartitionState(files=[], rows=0, bytes=0, watermark_lsn=5)},
    )


def test_commit_roundtrip(tmp_lake):
    lake = Lake(tmp_lake)
    assert lake.current_manifest() is None
    lake.commit(_manifest(lake, 1, "aaa"))
    cur = lake.current_manifest()
    assert cur.version == 1 and cur.txn_id == "aaa"
    assert cur.schema.equals(CHANGELOG_SCHEMA)
    assert cur.partitions[0].watermark_lsn == 5


def test_put_if_absent_and_idempotence(tmp_lake):
    lake = Lake(tmp_lake)
    lake.commit(_manifest(lake, 1, "aaa"))
    # same txn retried → idempotent success
    got = lake.commit(_manifest(lake, 1, "aaa"))
    assert got.txn_id == "aaa"
    # different txn, same version → conflict
    with pytest.raises(CommitConflict):
        lake.commit(_manifest(lake, 1, "bbb"))
    # conflicting txn retries at the next version → success
    lake.commit(_manifest(lake, 2, "bbb", parent=1))
    assert lake.current_version() == 2


def test_gc_orphans(tmp_lake):
    lake = Lake(tmp_lake)
    man = _manifest(lake, 1, "aaa")
    man.partitions[0].files = ["data/part=0/keep.parquet"]
    os.makedirs(os.path.join(lake.data_dir, "part=0"), exist_ok=True)
    for fn in ("keep.parquet", "orphan.parquet"):
        with open(os.path.join(lake.data_dir, "part=0", fn), "wb") as f:
            f.write(b"x")
    lake.commit(man)
    # default quiescence: a freshly written orphan may belong to an in-flight
    # writer not yet published and must survive the default-age GC
    assert "data/part=0/orphan.parquet" not in lake.gc_orphans()
    assert os.path.exists(lake.abspath("data/part=0/orphan.parquet"))
    removed = lake.gc_orphans(staging_age_s=0.0)
    assert "data/part=0/orphan.parquet" in removed
    assert os.path.exists(lake.abspath("data/part=0/keep.parquet"))


def test_gc_age_guard_is_per_transaction(tmp_lake, monkeypatch):
    """An in-flight writer's first file can be old while its latest is
    fresh; its publish will reference both, so gc keeps the whole
    transaction until its NEWEST file passes the age, then removes it all."""
    lake = Lake(tmp_lake)
    lake.commit(_manifest(lake, 1, "aaa"))
    txn = "feedfacefeedface"
    rels = [f"data/part=0/{txn}-0-{i:04d}.parquet" for i in range(2)]
    os.makedirs(os.path.join(lake.data_dir, "part=0"), exist_ok=True)
    for rel in rels:
        with open(lake.abspath(rel), "wb") as f:
            f.write(b"x")
    age_s = {lake.abspath(rels[0]): 7200.0, lake.abspath(rels[1]): 10.0}
    real_mtime = Lake._mtime

    def mtime(self, path, default=0.0):
        if path in age_s:
            return time.time() - age_s[path]
        return real_mtime(self, path, default)

    monkeypatch.setattr(Lake, "_mtime", mtime)
    assert not [r for r in lake.gc_orphans() if txn in r]
    assert all(os.path.exists(lake.abspath(r)) for r in rels)
    age_s[lake.abspath(rels[1])] = 7200.0
    assert sorted(r for r in lake.gc_orphans() if txn in r) == rels
    assert not any(os.path.exists(lake.abspath(r)) for r in rels)


def test_precondition_failure_reads_the_structured_status():
    """Only a real lost CAS counts: an error whose text merely contains
    "412" (a byte count, a version number) is not one."""
    from radiant_portal_pipeline_ray.state.manifest import (
        _is_precondition_failure as lost,
    )

    def err(msg, **attrs):
        e = Exception(msg)
        for k, v in attrs.items():
            setattr(e, k, v)
        return e

    assert not lost(OSError("short read: got 412 of 4096 bytes"))
    assert not lost(OSError("no such key manifests/manifest-v000000000412.json"))
    # botocore ClientError shape
    s3 = {"Error": {"Code": "PreconditionFailed"}, "ResponseMetadata": {"HTTPStatusCode": 412}}
    assert lost(err("An error occurred", response=s3))
    slow = {"Error": {"Code": "SlowDown"}, "ResponseMetadata": {"HTTPStatusCode": 503}}
    assert not lost(err("SlowDown after 412 ms", response=slow))
    # gcsfs HttpError.code, azure-core error_code / status_code
    assert lost(err("At least one precondition did not hold", code=412))
    assert not lost(err("object 412 not found", code=404))
    assert lost(err("The condition specified was not met", error_code="ConditionNotMet"))
    assert lost(err("Precondition Failed", status_code=412))
    # text fallback for errors without a structured status
    assert lost(OSError("PreconditionFailed: 412"))
    assert lost(OSError("412 Precondition Failed"))
    assert lost(OSError("conditionNotMet"))



def test_changed_partitions_of_a_manifest_pair():
    """Added, dropped and rewritten partitions differ between two
    manifests; a partition with the same file list does not, and neither
    does one whose other fields alone changed."""

    def man(version, parts):
        return Manifest(
            version=version, txn_id=f"t{version}", parent_version=None,
            schema=None, partitions=parts,
        )

    a = man(1, {
        0: PartitionState(files=["data/part=0/a-0-0000.parquet"], rows=3),
        1: PartitionState(files=["data/part=1/a-1-0000.parquet"]),
        2: PartitionState(files=["data/part=2/a-2-0000.parquet"]),
        3: PartitionState(files=["data/part=3/a-3-0000.parquet"]),
    })
    b = man(2, {
        0: PartitionState(files=["data/part=0/a-0-0000.parquet"], rows=5),
        1: PartitionState(files=["data/part=1/b-1-0000.parquet"]),
        3: PartitionState(files=["data/part=3/a-3-0000.parquet", "data/part=3/b-3-0000.parquet"]),
        5: PartitionState(files=["data/part=5/b-5-0000.parquet"]),
    })
    assert changed_partitions(a, b) == [1, 2, 3, 5]
    assert changed_partitions(b, a) == [1, 2, 3, 5]
    assert changed_partitions(a, a) == []
