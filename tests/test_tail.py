"""WAL tail loop: exactly-once file consumption via the manifest ledger,
footer-proof skipping after pruning, crash-resume, CLI drain mode."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.pipelines.tail import (
    input_max_lsn,
    pending_inputs,
    tail,
)
from radiant_portal_pipeline_ray.schemas import CHANGELOG_SCHEMA

_US = 1_000_000
_T0 = 1_704_067_200 * _US


def _write_batch(path, lsn_start, n, n_urls=64):
    """n insert/update events over a small url universe (covers all
    partitions so the min watermark advances with every batch)."""
    lsn = np.arange(lsn_start, lsn_start + n, dtype=np.int64)
    urls = [f"https://d{i % 8}.example.org/p/{i % n_urls:04d}" for i in lsn]
    html = pa.array(
        [f"<html><body>doc {u} at {l}</body></html>".encode() for u, l in zip(urls, lsn)],
        pa.binary(),
    )
    from radiant_portal_pipeline_ray.functions.text import extract_text

    t = pa.Table.from_pydict(
        {
            "lsn": pa.array(lsn),
            "op": pa.array(["I"] * n),
            "url": pa.array(urls),
            "warc_ts": pa.array(
                (_T0 + lsn * _US).astype("datetime64[us]"), pa.timestamp("us")
            ),
            "html": html,
            "text": extract_text(html),
            "lang": pa.array(["en"] * n),
        },
        schema=CHANGELOG_SCHEMA,
    )
    pq.write_table(t, str(path))
    return str(path)


def test_tail_consumes_each_file_once(ray_session, tmp_path):
    cl = tmp_path / "cl"
    cl.mkdir()
    _write_batch(cl / "b0000.parquet", 0, 200)
    _write_batch(cl / "b0001.parquet", 200, 200)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))

    reports = tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    assert len(reports) == 1  # backlog drained in one round (both files)
    assert sorted(reports[0]["consumed_files"]) == ["b0000.parquet", "b0001.parquet"]
    v1 = eng.lake.current_manifest().version

    # nothing new → no applies, version unchanged
    assert tail(eng, str(cl), poll_s=0.0, idle_exit=1) == []
    assert eng.lake.current_manifest().version == v1

    # a new file arrives → exactly one more round consuming only it
    _write_batch(cl / "b0002.parquet", 400, 100)
    reports = tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    assert len(reports) == 1
    assert reports[0]["consumed_files"] == ["b0002.parquet"]
    assert eng.lake.current_manifest().version == v1 + 1


def test_ledger_pruned_by_watermark_and_footer_proof(ray_session, tmp_path):
    cl = tmp_path / "cl"
    cl.mkdir()
    p0 = _write_batch(cl / "b0000.parquet", 0, 200)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    man = eng.lake.current_manifest()
    # every partition saw lsns up to ~199; min watermark < 199 only if some
    # partition's max is lower — b0000 stays while min_wm < its max
    assert input_max_lsn(p0) == 199

    # batch 2 pushes every partition's watermark past 199 → b0000's ledger
    # entry must be pruned, and the footer proof must still skip the file
    _write_batch(cl / "b0001.parquet", 200, 400)
    tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    man = eng.lake.current_manifest()
    assert man.min_watermark() >= 199
    assert "b0000.parquet" not in man.consumed_inputs
    assert pending_inputs(eng, str(cl)) == []  # footer-proof skip

    # crash-resume: a FRESH engine (new process analogue) sees the same state
    eng2 = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    assert tail(eng2, str(cl), poll_s=0.0, idle_exit=1) == []


def test_ledger_matches_name_and_max_lsn(ray_session, tmp_path):
    """The tail and the apply round share one consumed rule: a file whose
    name is in the ledger but whose max lsn differs is new content."""
    cl = tmp_path / "cl"
    cl.mkdir()
    _write_batch(cl / "b0000.parquet", 0, 200)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    assert pending_inputs(eng, str(cl)) == []
    p = _write_batch(cl / "b0000.parquet", 500, 100)  # same name, new events
    assert pending_inputs(eng, str(cl)) == [p]
    reports = tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    assert [r["consumed_files"] for r in reports] == [["b0000.parquet"]]
    assert pending_inputs(eng, str(cl)) == []


def test_old_manifest_without_ledger_loads(ray_session, tmp_path):
    """Manifests committed before the ledger existed must round-trip."""
    from radiant_portal_pipeline_ray.state.manifest import Manifest

    cl = tmp_path / "cl"
    cl.mkdir()
    _write_batch(cl / "b0000.parquet", 0, 100)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply([str(cl / "b0000.parquet")])
    man_path = eng.lake._manifest_path(eng.lake.current_version())
    with open(man_path) as f:
        d = json.load(f)
    d.pop("consumed_inputs")
    m = Manifest.from_json(d)
    assert m.consumed_inputs == {}


def test_tail_cli_drain(ray_session, tmp_path, capsys):
    from radiant_portal_pipeline_ray.__main__ import main

    cl = tmp_path / "cl"
    cl.mkdir()
    _write_batch(cl / "b0000.parquet", 0, 150)
    rc = main(
        [
            "tail",
            "--lake",
            str(tmp_path / "lake"),
            "--changelog",
            str(cl),
            "--n-parts",
            "4",
            "--poll-s",
            "0",
            "--idle-exit",
            "1",
        ]
    )
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
    # one report line + the final {"rounds": 1}
    assert json.loads(lines[-1])["rounds"] == 1
    rep = json.loads(lines[0])
    assert rep["consumed_files"] == ["b0000.parquet"]


def test_tail_with_signature_index(ray_session, tmp_path):
    """Continuous ingest + continuous near-dup: the index builds at the
    first commit, then every subsequent round probes the increment against
    it and persists the pairs."""
    from radiant_portal_pipeline_ray.pipelines.incremental_dedup import (
        SignatureIndex,
    )

    cl = tmp_path / "cl"
    cl.mkdir()
    # batch 1: 40 distinct docs (few-token texts are below the shingle k —
    # make them long enough to sign)
    def _docs_batch(path, lsn_start, texts):
        lsn = np.arange(lsn_start, lsn_start + len(texts), dtype=np.int64)
        urls = [f"https://d{i % 4}.example.org/doc/{i:05d}" for i in lsn]
        html = pa.array(
            [f"<html><body><p>{tx}</p></body></html>".encode() for tx in texts],
            pa.binary(),
        )
        from radiant_portal_pipeline_ray.functions.text import extract_text

        t = pa.Table.from_pydict(
            {
                "lsn": pa.array(lsn),
                "op": pa.array(["I"] * len(texts)),
                "url": pa.array(urls),
                "warc_ts": pa.array(
                    (_T0 + lsn * _US).astype("datetime64[us]"),
                    pa.timestamp("us"),
                ),
                "html": html,
                "text": extract_text(html),
                "lang": pa.array(["en"] * len(texts)),
            },
            schema=CHANGELOG_SCHEMA,
        )
        pq.write_table(t, str(path))

    base_texts = [
        f"the quick brown fox jumps over the lazy dog number {i} "
        f"in a long deterministic sentence used for shingling tests"
        for i in range(40)
    ]
    _docs_batch(cl / "b0000.parquet", 0, base_texts)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    idx = SignatureIndex(str(tmp_path / "sigidx"), n_buckets=8)

    r1 = tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    assert r1[0]["sig_index"] == {"built_at": 1}
    assert idx.version == 1

    # batch 2: 5 near-copies of batch-1 docs (one word changed) under NEW
    # urls + 5 unrelated docs
    dup_texts = [t.replace("lazy", "sleepy") for t in base_texts[:5]]
    new_texts = [
        f"completely different content about topic {i} with many unique "
        f"words that share nothing with the first batch {i}"
        for i in range(5)
    ]
    _docs_batch(cl / "b0001.parquet", 1000, dup_texts + new_texts)
    r2 = tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    assert idx.version == 2
    assert r2[0]["neardup_pairs"] >= 5  # each near-copy collides with its base
    pairs_file = tmp_path / "sigidx" / "pairs" / "v000002.parquet"
    assert pairs_file.exists()
    pt = pq.read_table(str(pairs_file))
    assert pt.num_rows == r2[0]["neardup_pairs"]
    # every detected pair is (new incoming url, previously indexed url)
    news = {u for u in pt.column("new_url").to_pylist()}
    assert all("doc/01" in u for u in news)  # lsn >= 1000 urls


def _index_state(idx) -> dict:
    """Both sidecars' live entries, sorted: equal for equal index states."""
    out = {}
    for kind in ("bands", "sigs"):
        rows = idx.snapshot_entries(kind).to_pylist()
        out[kind] = sorted(
            (r["url"], r.get("band_hash"), tuple(r.get("minhash") or ()))
            for r in rows
        )
    return out


def test_tail_catches_up_after_lost_index_update(ray_session, tmp_path):
    """Round 1 builds the index; round 2 commits the lake without its index
    update (a process that dies between the two leaves this state); round
    3 catches the index up over both commits instead of refusing, and it
    then equals a fresh build at the current version."""
    from radiant_portal_pipeline_ray.pipelines.incremental_dedup import (
        SignatureIndex,
    )

    cl = tmp_path / "cl"
    cl.mkdir()
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    idx = SignatureIndex(str(tmp_path / "sigidx"), n_buckets=8)
    _write_batch(cl / "b0000.parquet", 1000, 100)
    r1 = tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    assert r1[0]["sig_index"] == {"built_at": 1}

    _write_batch(cl / "b0001.parquet", 1100, 100)
    tail(eng, str(cl), poll_s=0.0, idle_exit=1)  # the index update is lost
    assert (eng.lake.current_version(), idx.version) == (2, 1)

    _write_batch(cl / "b0002.parquet", 1200, 100)
    r3 = tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    assert r3[0]["version"] == 3 and idx.version == 3
    assert r3[0]["sig_index"]["from_version"] == 1
    assert r3[0]["sig_index"]["sig_dels"] > 0  # the rewritten urls' old entries

    fresh = SignatureIndex(str(tmp_path / "fresh"), n_buckets=8)
    fresh.build(eng, 3)
    assert _index_state(idx) == _index_state(fresh)


def test_tail_catch_up_ignores_a_crashed_rounds_files(ray_session, tmp_path, monkeypatch):
    """An index round that dies after its bucket writes and before its
    index commit leaves files no index manifest references. Catching up
    over that version must not fold them in: after round 3 the index
    equals a fresh build, though every url was rewritten in both round 2
    (whose band adds stay on disk) and round 3."""
    from radiant_portal_pipeline_ray.pipelines.incremental_dedup import (
        SignatureIndex,
    )
    from tests.test_incremental_dedup import crash_next_commit

    cl = tmp_path / "cl"
    cl.mkdir()
    root = str(tmp_path / "sigidx")
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    _write_batch(cl / "b0000.parquet", 1000, 100)
    tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=SignatureIndex(root, n_buckets=8))
    _write_batch(cl / "b0001.parquet", 1100, 100)
    # the crash: the round's index files are written, its index commit is not
    crash_next_commit(monkeypatch, root)
    with pytest.raises(RuntimeError, match="crash"):
        tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=SignatureIndex(root, n_buckets=8))
    assert eng.lake.current_version() == 2

    idx = SignatureIndex(root, n_buckets=8)
    assert idx.version == 1
    _write_batch(cl / "b0002.parquet", 1200, 100)
    r3 = tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    assert r3[0]["sig_index"]["from_version"] == 1 and idx.version == 3

    fresh = SignatureIndex(str(tmp_path / "fresh"), n_buckets=8)
    fresh.build(eng, 3)
    assert _index_state(idx) == _index_state(fresh)


def test_tail_rebuilds_index_once_when_its_base_is_pruned(ray_session, tmp_path):
    """An index whose version gc has pruned cannot catch up
    (``read_changes`` needs both ends): the tail rebuilds it once at the
    new version, says so in the report, and the next round ingests."""
    from radiant_portal_pipeline_ray.pipelines.incremental_dedup import (
        SignatureIndex,
    )

    cl = tmp_path / "cl"
    cl.mkdir()
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    idx = SignatureIndex(str(tmp_path / "sigidx"), n_buckets=8)
    _write_batch(cl / "b0000.parquet", 1000, 100)
    tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    _write_batch(cl / "b0001.parquet", 1100, 100)
    tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    eng.lake.gc_orphans(keep_versions=1)
    assert 1 not in eng.lake.versions()

    _write_batch(cl / "b0002.parquet", 1200, 100)
    r3 = tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    assert r3[0]["sig_index"] == {"built_at": 3, "rebuilt_from": 1}
    fresh = SignatureIndex(str(tmp_path / "fresh"), n_buckets=8)
    fresh.build(eng, 3)
    assert _index_state(idx) == _index_state(fresh)

    _write_batch(cl / "b0003.parquet", 1300, 100)
    r4 = tail(eng, str(cl), poll_s=0.0, idle_exit=1, sig_index=idx)
    assert r4[0]["sig_index"]["from_version"] == 3 and idx.version == 4


def test_batch_files_caps_round_size(ray_session, tmp_path):
    cl = tmp_path / "cl"
    cl.mkdir()
    for i in range(4):
        _write_batch(cl / f"b{i:04d}.parquet", i * 100, 100)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    reports = tail(eng, str(cl), poll_s=0.0, idle_exit=1, batch_files=2)
    assert [len(r["consumed_files"]) for r in reports] == [2, 2]
    assert eng.read_snapshot().count() > 0


def test_manifest_size_independent_of_lake_age(ray_session, tmp_path):
    """Tail rounds over a fixed partition set: the manifest holds each
    partition's last commit only, so it does not grow with the version
    count (all lsns have four digits, so no figure widens either)."""
    cl = tmp_path / "cl"
    cl.mkdir()
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    for i in range(25):
        _write_batch(cl / f"b{i:04d}.parquet", 1000 + 100 * i, 100)
        assert len(tail(eng, str(cl), poll_s=0.0, max_rounds=1, idle_exit=1)) == 1
    man = eng.lake.current_manifest()
    assert man.version == 25 and not man.salt_map
    assert all(len(st.lineage) == 1 for st in man.partitions.values())

    def size(v):
        return os.path.getsize(eng.lake._manifest_path(v))

    assert abs(size(25) - size(3)) <= 0.02 * size(3), (size(3), size(25))


def test_footer_parsed_once_per_process(ray_session, tmp_path, monkeypatch):
    """``input_max_lsn`` parses a footer it has seen byte for byte only
    once: a second poll of an unchanged directory and the apply that takes
    its files parse none. A file rewritten in place (same name, no rename)
    with new lsns has a new footer, so it is parsed again and is pending."""
    import radiant_portal_pipeline_ray.pipelines.tail as tail_mod

    opened: list[str] = []
    real = tail_mod.pq

    class CountingParquet:
        def __getattr__(self, name):
            return getattr(real, name)

        @staticmethod
        def ParquetFile(path, *args, **kwargs):
            opened.append(os.path.basename(str(path)))
            return real.ParquetFile(path, *args, **kwargs)

    monkeypatch.setattr(tail_mod, "pq", CountingParquet())
    cl = tmp_path / "cl"
    cl.mkdir()
    _write_batch(cl / "b0000.parquet", 0, 200)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    tail(eng, str(cl), poll_s=0.0, idle_exit=1)
    assert eng.lake.current_manifest().min_watermark() >= 0

    p1 = _write_batch(cl / "b0001.parquet", 200, 200)
    opened.clear()
    assert pending_inputs(eng, str(cl)) == [p1]
    assert opened == ["b0001.parquet"]  # b0000's footer was seen before
    opened.clear()
    assert pending_inputs(eng, str(cl)) == [p1]
    assert opened == []
    eng.apply([p1])
    assert opened == []  # the ledger reuses the poll's entries
    assert pending_inputs(eng, str(cl)) == []
    assert opened == []

    p0 = _write_batch(cl / "b0000.parquet", 500, 100)  # in place, new lsns
    assert pending_inputs(eng, str(cl)) == [p0]
    assert opened == ["b0000.parquet"]
    assert input_max_lsn(p0) == 599
