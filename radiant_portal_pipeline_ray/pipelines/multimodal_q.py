"""Multimodal pipeline queries: opaque binary payload columns processed by
actor-pool ``map_batches`` stages (decode kernels stubbed — see
``stages/multimodal.py``; the Ray plumbing is real and value-checked).

Payloads are derived deterministically from the ``documents`` table
(``payload = utf8 bytes of text``) so the pipelines run on driver testdata
without external media files.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from radiant_portal_pipeline_ray.sources.io import read_parquet_clean
from radiant_portal_pipeline_ray.stages.taskshuffle import (
    map_blocks,
    select_columns,
    sort_table,
)

from radiant_portal_pipeline_ray.stages.multimodal import (
    FrameSampleStage,
    ImageFeatureStage,
)

QUERIES: dict = {}


def _register(name: str, sql: str | None):
    def deco(fn):
        QUERIES[name] = (fn, sql)
        return fn

    return deco


def _media_from_documents(sf_dir: str) -> rd.Dataset:
    """documents → MEDIA_SCHEMA-shaped dataset (payload = text bytes)."""
    docs = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def to_media(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": b.column("doc_id"),
                "payload": pc.cast(b.column("text"), pa.binary()),
                "mime": pa.array(["text/fake"] * b.num_rows),
            }
        )

    return map_blocks(docs, to_media)


def _media_map(media, stage):
    """``stage`` over ``media`` in batches of 256 wide binary rows: on the
    driver for a table, else in two concurrent Ray Data workers (batch ×
    concurrency bounded)."""
    if isinstance(media, pa.Table):
        return map_blocks(media, stage, 256)
    return media.map_batches(
        stage, batch_format="pyarrow", concurrency=2, batch_size=256
    )


# ---------------------------------------------------------------------------
# frame sampling: flat-map 1 payload → N frame rows (CSQ-explode shape, M7);
# offsets are real, frame decode is the stub boundary. Oracle reproduces the
# sampling arithmetic in SQL, so the explode plumbing is value-checked.
# ---------------------------------------------------------------------------
@_register(
    "mm_frame_samples",
    """
    SELECT media_id, CAST(f AS BIGINT) AS frame_no,
           CAST(f * 1024 AS BIGINT) AS byte_offset
    FROM (SELECT doc_id AS media_id,
                 LEAST(8, GREATEST(1, octet_length(encode(text)) // 1024)) AS n
          FROM documents) d,
         LATERAL (SELECT unnest(generate_series(0, n - 1)) AS f) g
    ORDER BY media_id, frame_no
    """,
)
def mm_frame_samples(sf_dir: str):
    media = _media_from_documents(sf_dir)
    sampled = _media_map(media, FrameSampleStage(every_n_bytes=1024, max_frames=8))

    def widen(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "media_id": b.column("media_id"),
                "frame_no": pc.cast(b.column("frame_no"), pa.int64()),
                "byte_offset": b.column("byte_offset"),
            }
        )

    return sort_table(map_blocks(sampled, widen), ["media_id", "frame_no"])


# ---------------------------------------------------------------------------
# image feature extraction: actor-pool stage, payload dropped before any
# downstream exchange (project-before-shuffle). The stubbed decode derives
# features from md5(payload), so the oracle reproduces the full vector.
# ---------------------------------------------------------------------------
@_register(
    "mm_image_features",
    """
    SELECT doc_id AS media_id,
           list_transform(range(0, 16), i ->
             (CAST('0x' || substr(md5(text), 2*i + 1, 2) AS INTEGER) - 127.5)
               / 128.0
           ) AS features
    FROM documents ORDER BY media_id
    """,
)
def mm_image_features(sf_dir: str):
    media = _media_from_documents(sf_dir)
    feats = _media_map(media, ImageFeatureStage())
    return sort_table(select_columns(feats, ["media_id", "features"]), "media_id")


# ---------------------------------------------------------------------------
# resize: aspect-preserving fit into a 224x224 box. Source dims are derived
# deterministically from payload length (no media files in testdata); the
# integer floor arithmetic and the md5 resize witness are SQL-reproducible,
# so the oracle value-checks the whole stage, not just row counts.
# ---------------------------------------------------------------------------
@_register(
    "mm_resize",
    """
    WITH m AS (
      SELECT doc_id AS media_id, text,
             64 + octet_length(encode(text)) % 960 AS w,
             64 + (octet_length(encode(text)) * 7) % 960 AS h
      FROM documents
    ), r AS (
      SELECT media_id, text, w, h,
             GREATEST(1, (w * 224) // GREATEST(GREATEST(w, h), 1)) AS out_w,
             GREATEST(1, (h * 224) // GREATEST(GREATEST(w, h), 1)) AS out_h
      FROM m
    )
    SELECT media_id,
           CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
           CAST(out_w AS BIGINT) AS out_w, CAST(out_h AS BIGINT) AS out_h,
           md5(md5(text) || '-' || out_w || 'x' || out_h) AS resized_sig
    FROM r ORDER BY media_id
    """,
)
def mm_resize(sf_dir: str):
    from radiant_portal_pipeline_ray.stages.multimodal import ImageResizeStage

    media = _media_from_documents(sf_dir)

    def with_dims(b: pa.Table) -> pa.Table:
        import numpy as np

        n = (
            pc.binary_length(b.column("payload"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        b = b.append_column(
            "width", pa.array((n % 960 + 64).astype(np.int32))
        )
        return b.append_column(
            "height", pa.array((n * 7 % 960 + 64).astype(np.int32))
        )

    resized = _media_map(
        map_blocks(media, with_dims), ImageResizeStage(target_w=224, target_h=224)
    )
    return sort_table(resized, "media_id")
