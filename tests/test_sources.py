"""Tests for file-load sources (S8 broker-load / S10 NDJSON analogs) and
multimodal pipeline queries."""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pacsv
import ray.data as rd

from radiant_portal_pipeline_ray.pipelines import multimodal_q, sourceload
from radiant_portal_pipeline_ray.sources.loaders import (
    idempotent_load,
    read_csv_mapped,
    read_ndjson_mapped,
)

SF = "/root/testdata/sf0.001"


def _oracle(sql: str) -> pa.Table:
    con = duckdb.connect()
    for t in ("documents", "events"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    out = con.execute(sql).arrow()
    con.close()
    return out


def _norm(t: pa.Table) -> pa.Table:
    t = t.combine_chunks()
    return t.select(sorted(t.column_names))


def _assert_matches_oracle(name: str) -> None:
    fn, sql = (sourceload.QUERIES | multimodal_q.QUERIES)[name]
    got = fn(SF)
    got = pa.Table.from_pandas(got.to_pandas(), preserve_index=False)
    want = _oracle(sql)
    got, want = _norm(got), _norm(want)
    assert got.num_rows == want.num_rows
    for col in want.column_names:
        w = want.column(col).combine_chunks()
        g = got.column(col).combine_chunks().cast(w.type)
        assert g.equals(w), f"{name}.{col}"


def test_csv_load_matches_oracle(ray_session):
    _assert_matches_oracle("s_csv_load")


def test_ndjson_load_matches_oracle(ray_session):
    _assert_matches_oracle("s_ndjson_load")


def test_frame_samples_match_oracle(ray_session):
    _assert_matches_oracle("mm_frame_samples")


def test_image_features_deterministic(ray_session):
    a = multimodal_q.QUERIES["mm_image_features"][0](SF).to_pandas()
    b = multimodal_q.QUERIES["mm_image_features"][0](SF).to_pandas()
    assert len(a) > 0 and a["features"].iloc[0] is not None
    assert all(len(f) == 16 for f in a["features"])
    assert (a["media_id"] == b["media_id"]).all()
    assert all(list(x) == list(y) for x, y in zip(a["features"], b["features"]))


def test_csv_mapped_rename_computed_filter(ray_session, tmp_path):
    src = pa.table({"a": [1, 2, 3, 4], "b_raw": ["x", "y", "z", "w"]})
    p = str(tmp_path / "in.csv")
    pacsv.write_csv(src, p)
    ds = read_csv_mapped(
        p,
        rename={"b_raw": "b"},
        computed={"a2": lambda t: pc.multiply(t.column("a"), 10)},
        where=lambda t: pc.greater(t.column("a"), 1),
        select=["a", "b", "a2"],
    )
    out = ds.sort("a").to_pandas()
    assert list(out.columns) == ["a", "b", "a2"]
    assert out["a"].tolist() == [2, 3, 4]
    assert out["a2"].tolist() == [20, 30, 40]


def test_ndjson_mapped(ray_session, tmp_path):
    p = str(tmp_path / "in.jsonl")
    with open(p, "w") as f:
        f.write('{"k": 1, "v": "a"}\n{"k": 2, "v": "b"}\n')
    out = read_ndjson_mapped(p, where=lambda t: pc.equal(t.column("k"), 2)).to_pandas()
    assert out["v"].tolist() == ["b"]


def test_idempotent_load_label_skips(ray_session, tmp_path):
    lake = str(tmp_path / "lake")
    ds = rd.from_arrow(pa.table({"x": [1, 2, 3]}))
    r1 = idempotent_load(ds, lake, "label-1")
    assert r1["skipped"] is False
    r2 = idempotent_load(rd.from_arrow(pa.table({"x": [9]})), lake, "label-1")
    assert r2["skipped"] is True  # same label → no re-ingest
    back = rd.read_parquet(r2["path"]).to_pandas()
    assert sorted(back["x"].tolist()) == [1, 2, 3]
    assert not os.path.exists(os.path.join(lake, "_staging", "load-label-1"))


def test_export_follows_a_rewritten_source(tmp_path):
    """A source rewritten in place gets a fresh export (its size and mtime
    are part of the cache key), and no temporary file is left behind."""
    import shutil

    import pyarrow.parquet as pq

    sf = tmp_path / "sf"
    sf.mkdir()
    src = sf / "documents.parquet"
    shutil.copy(os.path.join(SF, "documents.parquet"), src)
    sql = "COPY (SELECT doc_id FROM src ORDER BY doc_id) TO '{path}' (FORMAT CSV, HEADER)"

    def exported_rows() -> int:
        path = sourceload._export(str(sf), "documents", sql, "csv")
        assert not [f for f in os.listdir(os.path.dirname(path)) if f.endswith(".tmp")]
        return pacsv.read_csv(path).num_rows

    full = pq.read_table(src)
    assert exported_rows() == full.num_rows
    pq.write_table(full.slice(0, 7), src)
    assert exported_rows() == 7
