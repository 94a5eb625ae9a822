"""Kernel-level tests for passage explode / sliding n-grams / repetition
stats, plus end-to-end first-wins semantics for corpus passage dedup and
membership semantics for decontamination on constructed corpora."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from radiant_portal_pipeline_ray.stages.taskshuffle import collect
from radiant_portal_pipeline_ray.stages.passages import (
    explode_fixed_passages,
    repetition_stats,
    sliding_ngram_hashes,
)


def _docs_table(texts, ids=None):
    ids = ids if ids is not None else list(range(len(texts)))
    return pa.table(
        {"doc_id": pa.array(ids, type=pa.int64()), "text": texts}
    )


def test_explode_fixed_passages_windows_and_order_keys():
    t = _docs_table(
        [
            "a b c d e f",  # 3 complete 2-word passages
            "x y z",  # 1 complete + dangling tail dropped
            "q",  # shorter than width: no passages
            None,  # null text: no passages
            "",  # empty: no passages
        ]
    )
    out = explode_fixed_passages(t, width=2)
    assert out.column("doc_id").to_pylist() == [0, 0, 0, 1]
    okeys = out.column("okey").to_pylist()
    assert okeys == [0 * (1 << 20) + 0, 0 * (1 << 20) + 1, 0 * (1 << 20) + 2, 1 << 20]
    exp_hi = [
        int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
        for s in ["a b", "c d", "e f", "x y"]
    ]
    exp_lo = [
        int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "big")
        for s in ["a b", "c d", "e f", "x y"]
    ]
    assert out.column("h_hi").to_pylist() == exp_hi
    assert out.column("h_lo").to_pylist() == exp_lo


def test_sliding_ngram_hashes_stay_inside_docs():
    t = _docs_table(["a b c", "c a b"])
    out = sliding_ngram_hashes(t, width=2)
    # doc0: "a b","b c"; doc1: "c a","a b" — NOT "c c" across the boundary
    assert out.column("doc_id").to_pylist() == [0, 0, 1, 1]

    def h64(s):
        return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")

    assert out.column("g64").to_pylist() == [
        h64("a b"),
        h64("b c"),
        h64("c a"),
        h64("a b"),
    ]


def test_sliding_ngram_short_batch_returns_typed_empty():
    out = sliding_ngram_hashes(_docs_table(["a"]), width=4)
    assert out.num_rows == 0
    assert out.schema.field("g64").type == pa.uint64()


def test_repetition_stats_exact_counts():
    t = _docs_table(["a a b a", "x y", "", None])
    out = repetition_stats(t)
    d = {c: out.column(c).to_pylist() for c in out.column_names}
    assert d["n_words"] == [4, 2, 0, None]
    assert d["n_distinct_words"] == [2, 2, 0, None]
    assert d["top_word_count"] == [3, 1, None, None]
    assert d["n_2grams"] == [3, 1, 0, None]
    # doc0 bigrams: "a a", "a b", "b a" — all distinct
    assert d["n_distinct_2grams"] == [3, 1, 0, None]


def test_passage_dedup_first_wins(ray_session, tmp_path):
    """Doc 0 owns every passage it shares with docs 1/2; dup counts land on
    the later (doc_id, passage_no)."""
    import pyarrow.parquet as pq

    from radiant_portal_pipeline_ray.pipelines.dedup import dd_passage_dedup

    texts = [
        "w1 w2 w3 w4 w5 w6 w7 w8 a1 a2 a3 a4 a5 a6 a7 a8",  # P0, P1
        "w1 w2 w3 w4 w5 w6 w7 w8 b1 b2 b3 b4 b5 b6 b7 b8",  # P0 dup + fresh
        "a1 a2 a3 a4 a5 a6 a7 a8 a1 a2 a3 a4 a5 a6 a7 a8",  # P1 dup twice
        "short doc",  # no complete passage: absent from output
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(4), type=pa.int64()),
                "text": texts,
                "lang": ["en"] * 4,
                "source": ["s"] * 4,
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    rows = collect(dd_passage_dedup(str(tmp_path))).to_pylist()
    got = {r["doc_id"]: (r["n_passages"], r["n_dup_passages"]) for r in rows}
    assert got == {0: (2, 0), 1: (2, 1), 2: (2, 2)}


def test_decontaminate_flags_only_eval_overlap(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from radiant_portal_pipeline_ray.pipelines.dedup import dd_decontaminate

    # doc 0 (0 % 13 == 0) is the eval doc; docs 1-3 are train
    texts = [
        "e1 e2 e3 e4 e5",  # eval: grams e1..e4, e2..e5
        "x0 e1 e2 e3 e4 x1",  # train: contains eval gram e1 e2 e3 e4 → 1 hit
        "e2 e3 e4 e5 e2 e3 e4 e5",  # train: e2..e5 twice + unseen wrap grams
        "z1 z2 z3 z4 z5",  # train: clean
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
                "text": texts,
                "lang": ["en"] * 4,
                "source": ["s"] * 4,
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    rows = collect(dd_decontaminate(str(tmp_path))).to_pylist()
    got = {r["doc_id"]: r["n_contaminated"] for r in rows}
    assert got == {1: 1, 2: 2}
