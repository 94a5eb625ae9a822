"""Dead-letter quarantine: malformed change events must not kill the round
or corrupt routing — they commit to a reasoned DLQ exactly alongside the
manifest."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.schemas import CHANGELOG_SCHEMA

_US = 1_000_000
_T0 = 1_704_067_200 * _US


def _write(path, rows):
    """rows: list of dicts with lsn/op/url/html (None allowed anywhere)."""
    lsn = [r.get("lsn") for r in rows]
    t = pa.Table.from_pydict(
        {
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array([r.get("op") for r in rows], pa.string()),
            "url": pa.array([r.get("url") for r in rows], pa.string()),
            "warc_ts": pa.array(
                [_T0 + (x or 0) * _US for x in lsn], pa.timestamp("us")
            ),
            "html": pa.array([r.get("html") for r in rows], pa.binary()),
            "text": pa.array([None] * len(rows), pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        },
        schema=CHANGELOG_SCHEMA,
    )
    pq.write_table(t, str(path))
    return str(path)


def _mixed_rows():
    good = [
        {"lsn": i, "op": "I", "url": f"https://ok.org/p/{i}",
         "html": f"<p>doc {i}</p>".encode()}
        for i in range(1, 21)
    ]
    bad = [
        {"lsn": 100, "op": "I", "url": None, "html": b"<p>x</p>"},     # null_url
        {"lsn": 101, "op": "I", "url": "", "html": b"<p>x</p>"},       # null_url
        {"lsn": 102, "op": "Z", "url": "https://ok.org/p/1", "html": b"x"},  # bad_op
        {"lsn": None, "op": "I", "url": "https://ok.org/p/2", "html": b"x"},  # bad_lsn
        {"lsn": -7, "op": "U", "url": "https://ok.org/p/3", "html": b"x"},   # bad_lsn
        {"lsn": 103, "op": "I", "url": "https://ok.org/p/4", "html": None},  # null_html
    ]
    return good, bad


def test_mixed_batch_quarantines_and_commits(ray_session, tmp_path):
    good, bad = _mixed_rows()
    p = _write(tmp_path / "cl.parquet", good + bad)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    rep = eng.apply([p])
    assert rep["rows_quarantined"] == len(bad)
    assert rep["quarantine"]["by_reason"] == {
        "null_url": 2, "bad_op": 1, "bad_lsn": 2, "null_html": 1,
    }
    assert eng.read_snapshot().count() == len(good)

    q = eng.read_quarantine().take_all()
    assert len(q) == len(bad)
    reasons = sorted(r["reason"] for r in q)
    assert reasons == sorted(
        ["null_url", "null_url", "bad_op", "bad_lsn", "bad_lsn", "null_html"]
    )
    man = eng.lake.current_manifest()
    assert len(man.quarantine_files) == 1
    assert man.metrics["last_apply"]["rows_quarantined"] == len(bad)

    # gc must keep the referenced quarantine file
    removed = eng.lake.gc_orphans(keep_versions=1, staging_age_s=0.0)
    assert not any("quarantine" in r for r in removed)
    assert eng.read_quarantine().count() == len(bad)


def test_all_malformed_batch_commits_quarantine_only(ray_session, tmp_path):
    good, bad = _mixed_rows()
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply([_write(tmp_path / "good.parquet", good)])
    v1 = eng.lake.current_manifest().version

    rep = eng.apply([_write(tmp_path / "bad.parquet", bad)])
    assert rep["rows_quarantined"] == len(bad)
    man = eng.lake.current_manifest()
    assert man.version == v1 + 1
    assert man.metrics.get("quarantine_only") is True
    # partition state unchanged; snapshot identical
    assert eng.read_snapshot().count() == len(good)
    assert eng.read_quarantine().count() == len(bad)


def test_quarantine_files_survive_compaction(ray_session, tmp_path):
    good, bad = _mixed_rows()
    p = _write(tmp_path / "cl.parquet", good + bad)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply([p])
    from radiant_portal_pipeline_ray.pipelines.maintenance import compact

    compact(str(tmp_path / "lake"), min_files=1)
    eng2 = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    assert eng2.read_quarantine().count() == len(bad)


def test_redelivered_input_is_not_quarantined_again(ray_session, tmp_path):
    good, bad = _mixed_rows()
    mixed = _write(tmp_path / "cl.parquet", good + bad)
    only_bad = _write(tmp_path / "bad.parquet", bad)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply([mixed])
    eng.apply([only_bad])  # a quarantine-only commit
    v = eng.lake.current_manifest().version
    for paths in ([mixed], [only_bad], [mixed, only_bad]):
        rep = eng.apply(paths)
        assert rep["noop"] is True, (paths, rep)
        assert eng.lake.current_manifest().version == v
    assert eng.read_quarantine().count() == 2 * len(bad)
    assert eng.read_snapshot().count() == len(good)


def test_old_and_new_input_commit_only_the_new_rows(ray_session, tmp_path):
    good, bad = _mixed_rows()
    old = _write(tmp_path / "old.parquet", good + bad)
    new_good = [
        {"lsn": 200 + i, "op": "I", "url": f"https://ok.org/q/{i}",
         "html": f"<p>new {i}</p>".encode()}
        for i in range(5)
    ]
    new_bad = [
        {"lsn": 300, "op": "I", "url": None, "html": b"<p>y</p>"},
        {"lsn": 301, "op": "X", "url": "https://ok.org/q/1", "html": b"y"},
    ]
    new = _write(tmp_path / "new.parquet", new_good + new_bad)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply([old])
    rep = eng.apply([old, new])
    assert rep["rows_quarantined"] == len(new_bad)
    assert rep["rows_upserted"] == len(new_good)
    assert eng.read_snapshot().count() == len(good) + len(new_good)
    assert eng.read_quarantine().count() == len(bad) + len(new_bad)


def _every_partition_rows(eng, n_domains=40):
    """Valid events over enough domains that every base partition commits
    state, so the lake's min watermark is at least 0."""
    return [
        {"lsn": 1 + i, "op": "I", "url": f"https://d{i}.org/p",
         "html": f"<p>d {i}</p>".encode()}
        for i in range(n_domains)
    ]


def test_bad_lsn_rows_of_a_new_input_are_quarantined_under_a_watermark(
    ray_session, tmp_path
):
    """Null and negative lsns prove nothing about what was committed: a new
    input of such rows, or one whose valid events sit at or below every
    watermark, still commits its malformed rows — exactly once."""
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply([_write(tmp_path / "base.parquet", _every_partition_rows(eng))])
    assert eng.lake.current_manifest().min_watermark() >= 0
    bad_lsn = [
        {"lsn": None, "op": "I", "url": "https://d1.org/p", "html": b"x"},
        {"lsn": -7, "op": "U", "url": "https://d2.org/p", "html": b"x"},
        {"lsn": -1, "op": "I", "url": "https://d3.org/p", "html": b"x"},
    ]
    only_bad = _write(tmp_path / "bad_lsn.parquet", bad_lsn)
    old_valid = _write(
        tmp_path / "old_valid.parquet",
        [{"lsn": 1, "op": "U", "url": "https://d0.org/p", "html": b"<p>o</p>"}]
        + bad_lsn,
    )
    for path in (only_bad, old_valid):
        v = eng.lake.current_manifest().version
        rep = eng.apply([path])
        assert rep.get("noop") is not True, (path, rep)
        assert rep["rows_quarantined"] == len(bad_lsn)
        assert eng.lake.current_manifest().version == v + 1
    assert eng.read_quarantine().count() == 2 * len(bad_lsn)
    # both are in the ledger now: a redelivery is a no-op
    v = eng.lake.current_manifest().version
    assert eng.apply([only_bad, old_valid])["noop"] is True
    assert eng.lake.current_manifest().version == v
    assert eng.read_quarantine().count() == 2 * len(bad_lsn)


def test_quarantine_only_commit_keeps_hot_counts(ray_session, tmp_path):
    """A quarantine-only commit runs no merge, so it must carry the
    partitioner's heavy-hitter counts from its base; dropping them makes
    the next apply re-seed from nothing and undercount the domain."""
    good, bad = _mixed_rows()
    # tracks a domain from 10 live rows, salts from 80: ok.org (20) tracked
    eng = CdcEngine(
        str(tmp_path / "lake"), EngineConfig(n_parts=4, salt_threshold_rows=80)
    )
    eng.apply([_write(tmp_path / "good.parquet", good)])
    hot = eng.lake.current_manifest().metrics["hot_counts"]
    assert hot == {"ok.org": len(good)}

    eng.apply([_write(tmp_path / "bad.parquet", bad)])
    man = eng.lake.current_manifest()
    assert man.metrics.get("hot_counts") == hot
    assert man.metrics["op"] == "quarantine_only"

def test_quarantine_only_commit_rebases_onto_a_concurrent_commit(
    ray_session, tmp_path, monkeypatch
):
    """A quarantine-only version touches no partition and no routing, so a
    concurrent commit — even one that advanced a partition — is rebased
    onto, not refused."""
    import dataclasses

    from radiant_portal_pipeline_ray.state.manifest import Lake

    good, bad = _mixed_rows()
    eng = CdcEngine(
        str(tmp_path / "lake"), EngineConfig(n_parts=4, salt_threshold_rows=80)
    )
    eng.apply([_write(tmp_path / "good.parquet", good)])
    planned = eng.lake.current_manifest()
    hot = planned.metrics["hot_counts"]
    assert hot == {"ok.org": len(good)}
    p, st = next((p, st) for p, st in planned.partitions.items() if st.files)
    orig = Lake.commit
    raced = []

    def racing_commit(self, manifest):
        if not raced:
            # another writer advances a partition first
            raced.append(manifest.txn_id)
            parts = dict(planned.partitions)
            parts[p] = dataclasses.replace(st, watermark_lsn=st.watermark_lsn + 1)
            orig(
                self,
                dataclasses.replace(
                    planned,
                    version=planned.version + 1,
                    parent_version=planned.version,
                    txn_id="cafe",
                    partitions=parts,
                    metrics={"op": "competitor", "hot_counts": hot},
                ),
            )
        return orig(self, manifest)

    monkeypatch.setattr(Lake, "commit", racing_commit)
    rep = eng.apply([_write(tmp_path / "bad.parquet", bad)])
    assert rep["version"] == planned.version + 2
    man = eng.lake.current_manifest()
    assert man.metrics["op"] == "quarantine_only"
    assert man.parent_version == planned.version + 1
    assert man.quarantine_files == [rep["quarantine"]["file"]]
    assert man.partitions[p].watermark_lsn == st.watermark_lsn + 1
    assert man.metrics["hot_counts"] == hot
    assert eng.read_quarantine().count() == len(bad)
