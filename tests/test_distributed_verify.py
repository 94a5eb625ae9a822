"""Distributed near-dup verification: the task path (forced via
``taskshuffle._DRIVER_LOCAL_BYTES = -1``) must produce byte-identical
results to the driver path, with ZERO driver-assembled shingle state; and
dropped over-cap buckets must cost candidate recall only — surviving pairs
keep exact ``inter``/``uni`` values."""

import os

import pandas as pd
import pytest

import radiant_portal_pipeline_ray.pipelines.dedup as dd
from radiant_portal_pipeline_ray.stages import taskshuffle

SF = "/root/testdata/sf0.001"


def _pdf(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_ngram_distributed_verify_matches_driver(monkeypatch):
    expected = _pdf(dd.dd_ngram_jaccard(SF))
    assert len(expected) > 0
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    got = _pdf(dd.dd_ngram_jaccard(SF))
    pd.testing.assert_frame_equal(got, expected)


@pytest.mark.usefixtures("ray_session")
def test_minhash_distributed_verify_matches_driver(monkeypatch):
    expected = _pdf(dd.dd_minhash_lsh(SF))
    assert len(expected) > 0
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    got = _pdf(dd.dd_minhash_lsh(SF))
    pd.testing.assert_frame_equal(got, expected)


@pytest.mark.usefixtures("ray_session")
def test_dropped_buckets_keep_survivor_values_exact():
    """With an aggressively small bucket cap, many shingle buckets drop.
    Survivors must be a SUBSET of the uncapped result with IDENTICAL
    inter/uni values (no undercounting from missing bucket multiplicity)."""
    full = _pdf(dd.dd_ngram_jaccard(SF))
    capped = _pdf(dd.dd_ngram_jaccard(SF, max_bucket=2))
    merged = capped.merge(
        full, on=["doc_a", "doc_b"], how="left", suffixes=("", "_full")
    )
    # every surviving pair exists in the full result...
    assert not merged["inter_full"].isna().any()
    # ...with exactly the same values
    assert (merged["inter"] == merged["inter_full"]).all()
    assert (merged["uni"] == merged["uni_full"]).all()


@pytest.mark.usefixtures("ray_session")
def test_distributed_path_builds_no_driver_state(monkeypatch):
    """The scale path must never call the driver-state builder."""
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)

    def boom(*a, **k):  # pragma: no cover
        raise AssertionError("driver shingle state built on the scale path")

    monkeypatch.setattr(dd, "candidate_shingle_table", boom)
    got = _pdf(dd.dd_ngram_jaccard(SF))
    assert len(got) > 0


@pytest.mark.usefixtures("ray_session")
def test_connected_components_distributed_matches_union_find(monkeypatch):
    expected = _pdf(dd.dd_dedup_corpus(SF))
    assert len(expected) > 0
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    got = _pdf(dd.dd_dedup_corpus(SF))
    pd.testing.assert_frame_equal(got, expected)


@pytest.mark.usefixtures("ray_session")
def test_capped_buckets_verify_alike_on_both_paths(monkeypatch):
    """Dropped buckets send dd_ngram_jaccard through ``_verify_pairs``: the
    driver verification and ``distributed_verify`` give the same pairs."""
    expected = _pdf(dd.dd_ngram_jaccard(SF, max_bucket=2))
    assert len(expected) > 0
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    calls = []
    verify = dd.distributed_verify
    monkeypatch.setattr(
        dd, "distributed_verify", lambda *a, **k: calls.append(1) or verify(*a, **k)
    )
    got = _pdf(dd.dd_ngram_jaccard(SF, max_bucket=2))
    assert calls == [1]
    pd.testing.assert_frame_equal(got, expected)


@pytest.mark.usefixtures("ray_session")
def test_dedup_corpus_task_path_runs_distributed_operators(monkeypatch):
    """At ``_DRIVER_LOCAL_BYTES = -1`` dd_dedup_corpus exchanges its shingle
    pairs in bucket tasks and folds components by label propagation."""
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    kernels, cc_calls = [], []

    class CountingBucketTask:
        def __init__(self, task):
            self.task = task

        def remote(self, fn, *args):
            kernels.append(fn.__name__)
            return self.task.remote(fn, *args)

    monkeypatch.setattr(
        taskshuffle, "bucket_task", CountingBucketTask(taskshuffle.bucket_task)
    )
    cc = dd.connected_components_distributed
    monkeypatch.setattr(
        dd,
        "connected_components_distributed",
        lambda *a, **k: cc_calls.append(1) or cc(*a, **k),
    )
    got = _pdf(dd.dd_dedup_corpus(SF))
    assert cc_calls == [1]
    assert "shingle_pairs" in kernels
    assert len(got) > 0
