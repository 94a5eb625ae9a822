"""Exercise the declared codec/tokenizer override points with REAL kernels
(no native codecs needed):

- ``BpeEncodeStage`` with a trained merges table — real byte-pair-encoding
  semantics (lowest-rank merge repeat), hand-verified counts plus parity
  with an independently-written reference encoder.
- ``ImageFeatureStage._decode_stub`` overridden with a pure-python 24-bit
  uncompressed BMP parser — real pixels in, mean-channel features out,
  checked against the source pixel arrays.
- ``ImageResizeStage._resize_stub`` overridden with a real nearest-neighbor
  resample (decode BMP -> numpy index -> re-encode BMP -> md5), checked
  against an out-of-band recomputation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data as rd

from radiant_portal_pipeline_ray.stages.textstages import (
    BpeEncodeStage,
    train_bpe_merges,
)

# ---------------------------------------------------------------------------
# BPE
# ---------------------------------------------------------------------------

_MERGES = [("l", "o"), ("lo", "w"), ("e", "r")]


def _ref_encode_len(word: str, merges: list[tuple[str, str]]) -> int:
    """Independent reference: same lowest-rank-first semantics, written as a
    rank-scan over a tuple pipeline rather than the stage's list splice."""
    ranks = {m: i for i, m in enumerate(merges)}
    sym = tuple(word)
    while True:
        cand = [(ranks[p], i) for i, p in enumerate(zip(sym, sym[1:])) if p in ranks]
        if not cand:
            return len(sym)
        r, _ = min(cand)
        a, b = merges[r]
        out = []
        i = 0
        while i < len(sym):
            if i + 1 < len(sym) and (sym[i], sym[i + 1]) == (a, b):
                out.append(a + b)
                i += 2
            else:
                out.append(sym[i])
                i += 1
        sym = tuple(out)


def test_bpe_stage_hand_verified_counts(ray_session):
    # low -> [low]=1; lower -> [low, er]=2; lowest -> [low,e,s,t]=4; '.' -> 1
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": ["low lower lowest.", "lo lo", None],
        }
    )
    out = (
        rd.from_arrow(docs)
        .map_batches(BpeEncodeStage(_MERGES), batch_format="pyarrow")
        .sort("doc_id")
        .take_all()
    )
    counts = {r["doc_id"]: r["n_tokens_bpe_real"] for r in out}
    assert counts == {1: 8, 2: 2, 3: None}


def test_bpe_trainer_deterministic_and_consistent():
    corpus = [
        "low low low low low lower lower",
        "newest newest newest newest newest newest",
        "widest widest widest",
    ]
    m1 = train_bpe_merges(corpus, 8)
    m2 = train_bpe_merges(corpus, 8)
    assert m1 == m2 and len(m1) == 8
    # (e,s) and (s,t) tie at 9 occurrences (newest x6 + widest x3 each);
    # the deterministic lexicographic tie-break picks the larger pair
    assert m1[0] == ("s", "t")
    # trained merges actually compress the training words
    st = BpeEncodeStage(m1)
    assert st._encode_len("newest") < len("newest")
    assert st._encode_len("low") < len("low")


def test_bpe_stage_matches_reference_encoder(ray_session):
    corpus = [
        "the quick brown fox jumps over the lazy dog 42 times!",
        "pack my box with five dozen liquor jugs",
        "how vexingly quick daft zebras jump",
    ]
    merges = train_bpe_merges(corpus, 20)
    held_out = [
        "quicker boxes jumped lazily over foxy dogs",
        "zebra jugs vexed the dozen quick packs 1337 times?!",
        "",
    ]
    import re

    from radiant_portal_pipeline_ray.stages.textstages import TokenizeStage

    pat = re.compile(TokenizeStage.BPE_PATTERN)
    expected = [
        sum(_ref_encode_len(w, merges) for w in pat.findall(t)) for t in held_out
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(held_out)), type=pa.int64()),
            "text": held_out,
        }
    )
    out = (
        rd.from_arrow(docs)
        .map_batches(BpeEncodeStage(merges), batch_format="pyarrow")
        .sort("doc_id")
        .take_all()
    )
    assert [r["n_tokens_bpe_real"] for r in out] == expected


# ---------------------------------------------------------------------------
# BMP codec (pure python/numpy, from the package's worked override example)
# ---------------------------------------------------------------------------

from radiant_portal_pipeline_ray.stages.bmpcodec import (  # noqa: E402
    BmpFeatureStage,
    BmpResizeStage,
    encode_bmp,
    nn_resample,
)


def test_image_feature_stage_with_real_bmp_decoder(ray_session):
    rng = np.random.default_rng(7)
    imgs = [
        rng.integers(0, 256, size=(int(h), int(w), 3), dtype=np.uint8)
        for h, w in rng.integers(3, 41, size=(6, 2))
    ]
    tbl = pa.table(
        {
            "media_id": pa.array(range(len(imgs)), type=pa.int64()),
            "payload": pa.array([encode_bmp(im) for im in imgs], pa.binary()),
            "mime": pa.array(["image/bmp"] * len(imgs)),
            "width": pa.array([im.shape[1] for im in imgs], pa.int32()),
            "height": pa.array([im.shape[0] for im in imgs], pa.int32()),
        }
    )
    out = (
        rd.from_arrow(tbl)
        .map_batches(BmpFeatureStage(), batch_size=2, batch_format="pyarrow")
        .sort("media_id")
        .take_all()
    )
    assert len(out) == len(imgs)
    for row, im in zip(out, imgs):
        f = np.asarray(row["features"])
        assert f.shape == (16,)
        np.testing.assert_allclose(
            f[:3], im.reshape(-1, 3).mean(axis=0) / 255.0, rtol=0, atol=1e-12
        )
        assert f[3] == im.shape[1] / 1000.0 and f[4] == im.shape[0] / 1000.0
        assert "payload" not in row  # project-before-shuffle held


def test_image_resize_stage_with_real_resampler(ray_session):
    rng = np.random.default_rng(11)
    imgs = [
        rng.integers(0, 256, size=(int(h), int(w), 3), dtype=np.uint8)
        for h, w in [(30, 50), (64, 16), (7, 7)]
    ]
    tbl = pa.table(
        {
            "media_id": pa.array(range(len(imgs)), type=pa.int64()),
            "payload": pa.array([encode_bmp(im) for im in imgs], pa.binary()),
            "mime": pa.array(["image/bmp"] * len(imgs)),
            "width": pa.array([im.shape[1] for im in imgs], pa.int32()),
            "height": pa.array([im.shape[0] for im in imgs], pa.int32()),
        }
    )
    out = (
        rd.from_arrow(tbl)
        .map_batches(BmpResizeStage(target_w=24, target_h=24), batch_format="pyarrow")
        .sort("media_id")
        .take_all()
    )
    for row, im in zip(out, imgs):
        h, w, _ = im.shape
        long_side = max(w, h)
        exp_w, exp_h = max(1, w * 24 // long_side), max(1, h * 24 // long_side)
        assert (row["out_w"], row["out_h"]) == (exp_w, exp_h)
        exp_sig = hashlib.md5(
            encode_bmp(nn_resample(im, exp_w, exp_h))
        ).hexdigest()
        assert row["resized_sig"] == exp_sig
