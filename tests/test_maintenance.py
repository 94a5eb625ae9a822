"""Compaction + tombstone purge: fewer files, identical live state, apply
still converges afterwards."""

from __future__ import annotations

import pyarrow.compute as pc

from radiant_portal_pipeline_ray import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.pipelines.maintenance import compact
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)


def _sorted_live(eng):
    t = eng.snapshot_table()
    return t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))


def test_compact_preserves_state_and_shrinks_files(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=600, n_events=4000, n_batches=4, seed=21),
    )
    lake = str(tmp_path / "lake")
    # stream-sized files during ingest (tiny target) → scan-sized on compact
    cfg = EngineConfig(n_parts=4, target_rows_per_file=40)
    eng = CdcEngine(lake, cfg)
    for i in range(0, 4, 1):
        eng.apply(paths[i : i + 1])
    before = _sorted_live(eng)
    man = eng.lake.current_manifest()
    files_before = sum(len(st.files) for st in man.partitions.values())
    assert files_before > 4  # multiple files per partition

    r = compact(lake, EngineConfig(n_parts=4), min_files=2)
    assert r["noop"] is False and r["version"] == man.version + 1

    man2 = eng.lake.current_manifest()
    files_after = sum(len(st.files) for st in man2.partitions.values())
    assert files_after < files_before
    after = _sorted_live(eng)
    assert before.equals(after)
    # watermarks and doc_id counters untouched
    for p, st in man.partitions.items():
        assert man2.partitions[p].watermark_lsn == st.watermark_lsn
        assert man2.partitions[p].next_doc_seq == st.next_doc_seq


def test_purge_tombstones_then_apply_converges(ray_session, tmp_path):
    spec = ChangelogSpec(
        n_urls=400, n_events=3000, n_batches=4, seed=33, delete_ratio=0.15
    )
    paths = generate_changelog(str(tmp_path / "cl"), spec)
    lake = str(tmp_path / "lake")
    # horizon lag = the generator's out-of-order jitter bound: tombstones
    # older than (max warc_ts - jitter) can no longer be beaten by any
    # arriving event and are purged; newer ones are retained.
    cfg = EngineConfig(n_parts=4, tombstone_horizon_lag_s=spec.ts_jitter_s)
    eng = CdcEngine(lake, cfg)
    eng.apply(paths[:3])
    man = eng.lake.current_manifest()
    tombs_before = sum(st.tombstones for st in man.partitions.values())
    assert tombs_before > 0

    r = compact(lake, cfg, min_files=1, purge_tombstones=True)
    assert r["noop"] is False
    man2 = eng.lake.current_manifest()
    tombs_after = sum(st.tombstones for st in man2.partitions.values())
    assert tombs_after < tombs_before  # old tombstones purged
    assert tombs_after > 0  # recent (inside-horizon) tombstones retained

    # the engine keeps converging after purge: replay remaining batch and
    # compare with an uncompacted replay of the full changelog
    eng.apply(paths[3:])
    ref = CdcEngine(str(tmp_path / "lake_ref"), cfg)
    ref.apply(paths)
    a = _sorted_live(eng)
    b = _sorted_live(ref)
    assert a.select(["url", "text", "lsn"]).equals(b.select(["url", "text", "lsn"]))


def test_compact_noop_when_nothing_to_do(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=100, n_events=500, n_batches=2)
    )
    lake = str(tmp_path / "lake")
    cfg = EngineConfig(n_parts=2)
    eng = CdcEngine(lake, cfg)
    eng.apply(paths)
    v = eng.lake.current_manifest().version
    r = compact(lake, cfg, min_files=99)
    assert r["noop"] is True
    assert eng.lake.current_manifest().version == v


def test_snapshot_files_skip_html_and_text_statistics(ray_session, tmp_path):
    """Applied and compacted snapshot files carry Parquet min/max statistics
    for every column a scan filters on, and none for ``html``/``text``."""
    import pyarrow.parquet as pq

    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=200, n_events=800, n_batches=2, seed=8),
    )
    lake = str(tmp_path / "lake")
    eng = CdcEngine(lake, EngineConfig(n_parts=2, target_rows_per_file=50))
    for p in paths:
        eng.apply([p])

    def footers() -> dict:
        man = eng.lake.current_manifest()
        stats = {}
        for st in man.partitions.values():
            for f in st.files:
                md = pq.read_metadata(eng.lake.abspath(f))
                for rg in range(md.num_row_groups):
                    for i in range(md.num_columns):
                        c = md.row_group(rg).column(i)
                        stats.setdefault(c.path_in_schema, set()).add(c.is_stats_set)
        return stats

    def check():
        stats = footers()
        assert stats["html"] == stats["text"] == {False}
        for col in ("url", "warc_ts", "lsn", "deleted", "doc_id", "part"):
            assert stats[col] == {True}, col

    check()
    assert not compact(lake, EngineConfig(n_parts=2), min_files=2)["noop"]
    check()


def test_snapshot_file_statistics_cover_nested_leaves(tmp_path):
    """Nested user columns keep statistics on every leaf."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from radiant_portal_pipeline_ray.stages.merge import write_snapshot_files

    t = pa.table(
        {
            "url": ["a", "b"],
            "html": pa.array([b"<p>", b"<b>"]),
            "text": ["p", "b"],
            "s": pa.array([{"x": 1, "y": [1.0]}, {"x": 2, "y": []}]),
            "l": pa.array([[{"z": 1}], [{"z": 2}]]),
            "m": pa.array([[("k", 1)], [("j", 2)]], pa.map_(pa.string(), pa.int64())),
        }
    )
    files, nbytes, _ = write_snapshot_files(t, str(tmp_path), "txn", 3, 10, "zstd")
    md = pq.read_metadata(str(tmp_path / "part=3" / files[0]))
    assert nbytes == (tmp_path / "part=3" / files[0]).stat().st_size
    stats = {
        md.row_group(0).column(i).path_in_schema: md.row_group(0).column(i).is_stats_set
        for i in range(md.num_columns)
    }
    assert stats.pop("html") is stats.pop("text") is False
    assert len(stats) == 6 and all(stats.values()), stats
