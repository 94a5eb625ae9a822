"""MinHash+LSH candidate recall against the exact shared-shingle pipeline."""


def test_minhash_pairs_recall_vs_exact(ray_session):
    from radiant_portal_pipeline_ray.pipelines.dedup import (
        dd_minhash_lsh,
        dd_ngram_jaccard,
    )
    from radiant_portal_pipeline_ray.stages.taskshuffle import collect

    sf = "/root/testdata/sf0.01"
    truth = {
        (r["doc_a"], r["doc_b"]) for r in collect(dd_ngram_jaccard(sf)).to_pylist()
    }
    approx = {
        (r["doc_a"], r["doc_b"]) for r in collect(dd_minhash_lsh(sf)).to_pylist()
    }
    assert truth, "exact pipeline found no near-dup pairs"
    # every minhash pair is exact-verified, so no false positives possible
    assert approx <= truth
    recall = len(approx & truth) / len(truth)
    assert recall >= 0.9, f"minhash recall {recall:.2f}"
