"""Text-analysis queries over the ``documents`` table (training-data ops).

Stage instances (state built once at construction, shipped in the task
closure) run as task pools — full read-side parallelism, no actor cap.
"""

from __future__ import annotations

import os

import pyarrow as pa

from radiant_portal_pipeline_ray.sources.io import read_parquet_clean
from radiant_portal_pipeline_ray.stages.aggregates import partial_final_groupby
from radiant_portal_pipeline_ray.stages.taskshuffle import (
    collect,
    exchange_group,
    map_blocks,
    select_columns,
    sort_table,
)
from radiant_portal_pipeline_ray.stages.textstages import (
    FingerprintStage,
    LangIdStage,
    QualityScoreStage,
    TokenizeStage,
)

QUERIES: dict = {}


def _register(name: str, sql: str | None):
    def deco(fn):
        QUERIES[name] = (fn, sql)
        return fn

    return deco


def _docs(sf_dir: str, columns=None):
    return read_parquet_clean(os.path.join(sf_dir, "documents.parquet"), columns=columns)


_STOPLIST_SQL = (
    "['the','and','of','to','in','is','that','for','it','with','a','an','on',"
    "'at','as','by','be']"
)


@_register(
    "t_token_counts",
    """
    SELECT doc_id,
           CAST(len(list_filter(string_split(trim(text), ' '), x -> x <> ''))
                AS BIGINT) AS n_tokens_ws
    FROM documents ORDER BY doc_id
    """,
)
def t_token_counts(sf_dir: str):
    ds = map_blocks(_docs(sf_dir, ["doc_id", "text"]), TokenizeStage())
    return sort_table(select_columns(ds, ["doc_id", "n_tokens_ws"]), "doc_id")


@_register(
    "t_quality_scores",
    f"""
    SELECT doc_id,
           CAST(length(text) AS BIGINT) AS n_chars_q,
           CAST(len(list_filter(string_split(trim(text), ' '), x -> x <> ''))
                AS BIGINT) AS n_words,
           CAST(len(list_filter(string_split(trim(text), ' '),
                x -> x <> '' AND list_contains({_STOPLIST_SQL}, lower(x))))
                AS BIGINT) AS n_stopwords
    FROM documents ORDER BY doc_id
    """,
)
def t_quality_scores(sf_dir: str):
    ds = map_blocks(_docs(sf_dir, ["doc_id", "text"]), QualityScoreStage())
    cols = ["doc_id", "n_chars_q", "n_words", "n_stopwords"]
    return sort_table(select_columns(ds, cols), "doc_id")


def _lang_count_sql(lang: str, words: list[str]) -> str:
    lst = "[" + ",".join(f"'{w}'" for w in sorted(words)) + "]"
    return (
        f"len(list_filter(w, x -> list_contains({lst}, x))) AS c_{lang}"
    )


def _lang_id_sql() -> str:
    """DuckDB mirror of LangIdStage: first-100 nonempty lowercase tokens
    voted against per-language stopword profiles; CJK codepoint share of the
    first 200 chars ⇒ 'zh'; ties → alphabetically-first language (the CASE
    WHEN chain is in alphabetical order, matching np.argmax's first-max)."""
    from radiant_portal_pipeline_ray.stages.textstages import _LANG_PROFILES

    langs = sorted(k for k, v in _LANG_PROFILES.items() if v)
    counts = ",\n             ".join(
        _lang_count_sql(l, _LANG_PROFILES[l]) for l in langs
    )
    glist = ", ".join("c_" + l for l in langs)
    tie = "\n               ".join(
        f"WHEN c_{l} = greatest({glist}) THEN '{l}'" for l in langs
    )
    return f"""
    WITH toks AS (
      SELECT doc_id, lang, text,
             list_filter(string_split(lower(text), ' '), x -> x <> '')[:100] AS w,
             substr(text, 1, 200) AS head
      FROM documents
    ), votes AS (
      SELECT doc_id, lang, text, head, w,
             {counts},
             len(regexp_extract_all(head, '[一-鿿]')) AS cjk
      FROM toks
    )
    SELECT doc_id, lang,
           CASE
             WHEN text IS NULL OR text = '' THEN NULL
             WHEN cjk > 0.2 * length(head) THEN 'zh'
             WHEN len(w) = 0 OR greatest({glist}) = 0 THEN 'und'
             ELSE CASE {tie} END
           END AS lang_pred
    FROM votes ORDER BY doc_id
    """


@_register(
    "t_token_counts_bpe",
    r"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]'))
                AS BIGINT) AS n_tokens_bpe
    FROM documents ORDER BY doc_id
    """,
)
def t_token_counts_bpe(sf_dir: str):
    """GPT-2-style pre-tokenizer counts (word fragments / numbers / punct) —
    vectorized RE2 non-overlapping match count."""
    ds = map_blocks(_docs(sf_dir, ["doc_id", "text"]), TokenizeStage(mode="bpe"))
    return sort_table(select_columns(ds, ["doc_id", "n_tokens_bpe"]), "doc_id")


@_register("t_lang_id", _lang_id_sql())
def t_lang_id(sf_dir: str):
    ds = map_blocks(_docs(sf_dir, ["doc_id", "text", "lang"]), LangIdStage())
    return sort_table(select_columns(ds, ["doc_id", "lang", "lang_pred"]), "doc_id")


@_register(
    "t_fingerprints",
    """
    SELECT doc_id, md5(text) AS fingerprint
    FROM documents ORDER BY doc_id
    """,
)
def t_fingerprints(sf_dir: str):
    ds = map_blocks(_docs(sf_dir, ["doc_id", "text"]), FingerprintStage())
    return sort_table(select_columns(ds, ["doc_id", "fingerprint"]), "doc_id")


# ---------------------------------------------------------------------------
# Data mixing: stratified per-language quota sampling. A training-data
# pipeline caps each language's contribution to the mix; the deterministic
# choice is "lowest md5(doc_id) first" so the sample is stable across runs,
# cluster sizes and resumes (the same SQL-reproducible md5 trick as the
# minhash oracle). Distributed shape: per-batch top-k prune → keyed task
# shuffle → per-bucket final pick (stages/aggregates.topk_per_key).
# ---------------------------------------------------------------------------
@_register(
    "t_mix_language_quota",
    """
    SELECT lang, doc_id
    FROM (
      SELECT lang, doc_id,
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
                  AS UBIGINT) AS h
      FROM documents
    )
    QUALIFY row_number() OVER (PARTITION BY lang ORDER BY h, doc_id) <= 40
    ORDER BY lang, doc_id
    """,
)
def t_mix_language_quota(sf_dir: str, quota: int = 40):
    import numpy as np
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.aggregates import topk_per_key
    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64

    docs = _docs(sf_dir, ["lang", "doc_id"])

    def add_hash(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.string())
        hu = md5_hash64(ids)  # uint64, same value as the SQL UBIGINT
        # arrow sort has no uint64-over-int64 reinterpretation: flip the
        # sign bit so int64 ascending order == the oracle's UBIGINT order
        h_u = (hu ^ np.uint64(1 << 63)).view(np.int64)
        return b.append_column(pa.field("h_u", pa.int64()), pa.array(h_u))

    return topk_per_key(
        map_blocks(docs, add_hash),
        ["lang"],
        [("h_u", "ascending"), ("doc_id", "ascending")],
        k=quota,
        finish=lambda t: t.select(["lang", "doc_id"]),
        sort_by=["lang", "doc_id"],
    )


# ---------------------------------------------------------------------------
# Deterministic hash sampling (rate-based): the stable Bernoulli cousin of
# the quota mix above — keep a doc iff md5(doc_id) % 100 < rate. Same subset
# on every run, any cluster size, any resume; embarrassingly parallel (pure
# map_batches filter, no shuffle at all).
# ---------------------------------------------------------------------------
@_register(
    "t_hash_sample",
    """
    SELECT doc_id, lang
    FROM (
      SELECT doc_id, lang,
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
                  AS UBIGINT) AS h
      FROM documents
    )
    WHERE h % 100 < 10
    ORDER BY doc_id
    """,
)
def t_hash_sample(sf_dir: str, rate_pct: int = 10):
    import numpy as np
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64

    docs = _docs(sf_dir, ["doc_id", "lang"])

    def sample(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.string())
        keep = (md5_hash64(ids) % np.uint64(100)) < np.uint64(rate_pct)
        return b.filter(pa.array(keep))

    return sort_table(map_blocks(docs, sample), "doc_id")


# ---------------------------------------------------------------------------
# Gopher-style repetition quality features: exact integer repetition stats
# per doc (duplicate-word and duplicate-2-gram mass), the standard webtext
# quality-filter inputs alongside t_quality_scores. Pure map_batches — no
# shuffle; ratios (dup_word_frac = 1 - n_distinct_words/n_words, etc.) are
# derived downstream from exact numerators/denominators.
# ---------------------------------------------------------------------------
@_register(
    "t_repetition_stats",
    """
    WITH words AS (
      SELECT doc_id, list_filter(string_split(trim(text), ' '), x -> x <> '') AS w
      FROM documents
    )
    SELECT doc_id,
      CAST(len(w) AS BIGINT) AS n_words,
      CAST(len(list_distinct(w)) AS BIGINT) AS n_distinct_words,
      CAST(list_max(list_transform(list_distinct(w),
           x -> len(list_filter(w, y -> y = x)))) AS BIGINT) AS top_word_count,
      CAST(greatest(len(w)-1, 0) AS BIGINT) AS n_2grams,
      CAST(len(list_distinct(list_transform(range(len(w)-1),
           i -> w[i+1] || ' ' || w[i+2]))) AS BIGINT) AS n_distinct_2grams
    FROM words ORDER BY doc_id
    """,
)
def t_repetition_stats(sf_dir: str):
    from radiant_portal_pipeline_ray.stages.passages import repetition_stats

    ds = map_blocks(_docs(sf_dir, ["doc_id", "text"]), repetition_stats)
    return sort_table(ds, "doc_id")


# ---------------------------------------------------------------------------
# Data mixing: per-language TOKEN-BUDGET sampling. The quota mix above caps
# document COUNT; real mixture specs cap token mass per language ("20B
# tokens of fr"). Deterministic pick: ascending md5(doc_id) prefix whose
# running token sum stays within the budget. Distributed shape: per-batch
# prune (a row's batch-local prefix sum already exceeding the budget can
# never fit globally — global cum >= batch-local cum for the same order) →
# keyed task exchange on lang → exact per-bucket prefix scan. The pruned
# exchange ships only survivors of each batch, so the shuffle payload is
# bounded by (budget / min_doc_tokens) rows per language, not the corpus.
# ---------------------------------------------------------------------------
@_register(
    "t_mix_token_budget",
    """
    WITH t AS (
      SELECT lang, doc_id,
             CAST(len(list_filter(string_split(trim(text), ' '), x -> x <> ''))
                  AS BIGINT) AS n_tokens,
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
                  AS UBIGINT) AS h
      FROM documents
    ), c AS (
      SELECT lang, doc_id, n_tokens,
             SUM(n_tokens) OVER (PARTITION BY lang ORDER BY h, doc_id) AS cum
      FROM t
    )
    SELECT lang, doc_id, n_tokens FROM c WHERE cum <= 2000
    ORDER BY lang, doc_id
    """,
)
def t_mix_token_budget(sf_dir: str, budget: int = 2000):
    import numpy as np
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64

    docs = map_blocks(_docs(sf_dir, ["lang", "doc_id", "text"]), TokenizeStage())

    def _scan(t: pa.Table) -> pa.Table:
        """Sort by (lang, h, doc_id), per-lang prefix-sum n_tokens, keep
        rows with cum <= budget. Vectorized via a segmented cumsum."""
        if t.num_rows == 0:
            return t
        ids = pc.cast(t.column("doc_id"), pa.string())
        hu = md5_hash64(ids)
        h_u = (hu ^ np.uint64(1 << 63)).view(np.int64)  # oracle UBIGINT order
        t = t.append_column(pa.field("h_u", pa.int64()), pa.array(h_u))
        t = t.sort_by([("lang", "ascending"), ("h_u", "ascending"), ("doc_id", "ascending")])
        langs = t.column("lang").to_numpy(zero_copy_only=False)
        toks = t.column("n_tokens_ws").to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(toks)
        # segmented: subtract each lang-run's preceding total
        starts = np.r_[0, np.nonzero(langs[1:] != langs[:-1])[0] + 1]
        base = np.zeros(len(toks), dtype=np.int64)
        base[starts] = np.r_[0, cum[starts[1:] - 1]] if len(starts) > 1 else 0
        seg_cum = cum - np.maximum.accumulate(base)
        return t.filter(pa.array(seg_cum <= budget)).drop_columns(["h_u"])

    pruned = map_blocks(
        docs, lambda b: _scan(b.select(["lang", "doc_id", "n_tokens_ws"]))
    )
    return exchange_group(
        pruned,
        ["lang"],
        lambda t: _scan(t).rename_columns(["lang", "doc_id", "n_tokens"]),
        sort_by=["lang", "doc_id"],
    )


# ---------------------------------------------------------------------------
# Exact per-group quantiles (percentile_disc semantics): the distribution
# statistic behind quality-threshold selection ("keep docs above the p25
# length of their language"). Group cardinality (languages) is tiny while
# the value column is huge, so the exchange ships only (lang, value) pairs
# and each bucket computes its languages' quantiles with one np.sort —
# the simple shape when a group's values fit one worker. The sibling
# `q_quality_quantiles_scalable` below gives the SAME exact answer without
# ever co-locating a group (two-pass histogram refine) — the shape to use
# when a single group's value column outgrows a worker.
# ---------------------------------------------------------------------------
@_register(
    "q_quality_quantiles",
    """
    SELECT lang,
           CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY length(text))
                AS BIGINT) AS p25_chars,
           CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY length(text))
                AS BIGINT) AS p50_chars,
           CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY length(text))
                AS BIGINT) AS p90_chars,
           CAST(count(*) AS BIGINT) AS n_docs
    FROM documents GROUP BY lang ORDER BY lang
    """,
)
def q_quality_quantiles(sf_dir: str, ps=(0.25, 0.5, 0.9)):
    import numpy as np
    import pyarrow.compute as pc


    docs = _docs(sf_dir, ["lang", "text"])

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": b.column("lang"),
                "n_chars": pc.cast(pc.utf8_length(b.column("text")), pa.int64()),
            }
        )

    names = ["p25_chars", "p50_chars", "p90_chars"]
    schema = pa.schema(
        [("lang", pa.string())] + [(nm, pa.int64()) for nm in names + ["n_docs"]]
    )

    def quantiles(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # an empty bucket of the task path
            return schema.empty_table()
        t = t.sort_by([("lang", "ascending"), ("n_chars", "ascending")])
        langs = t.column("lang").to_numpy(zero_copy_only=False)
        vals = t.column("n_chars").to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.nonzero(langs[1:] != langs[:-1])[0] + 1, len(langs)]
        out = {name: [] for name in schema.names}
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            n = hi - lo
            out["lang"].append(langs[lo])
            out["n_docs"].append(n)
            for p, nm in zip(ps, names):
                # percentile_disc: first value with cume_dist >= p
                k = max(0, int(np.ceil(p * n)) - 1)
                out[nm].append(int(vals[lo + k]))
        return pa.table(out, schema=schema)

    pairs = map_blocks(docs, project)
    return exchange_group(pairs, ["lang"], quantiles, sort_by="lang")


# ---------------------------------------------------------------------------
# Exact per-group quantiles WITHOUT co-locating a group's values — the
# two-pass histogram-refine path that `q_quality_quantiles` documents as
# its 100 TB shape. Pass 1 streams a fixed LOG-SCALE histogram per
# (batch, lang) — bin = floor(64·log2(v+1)), 4096 fixed edges, no prior
# min/max scan — merged per lang through the keyed exchange into one
# 32 KB register row per language. From the merged counts each target
# rank k_p = ceil(p·n) resolves to (candidate bin, rank within bin).
# Pass 2 re-reads ONLY rows whose value falls in a candidate bin (a
# ~1/4096 slice per quantile; the bin map is a broadcast closure, not a
# shuffle) and picks the exact k-th order statistic per bin. The heaviest
# co-located object is one bin's values — bounded by corpus_size/4096 in
# the worst single-bin-skew case, and recursion on an oversized bin is the
# documented escape (not needed: char-length mass never concentrates in
# one log bin at 2^-6 granularity unless the column is near-constant, in
# which case the bin IS the answer).
# Same oracle as q_quality_quantiles — the result is EXACT, value-hash
# checked, not approximate.
# ---------------------------------------------------------------------------
_QUANT_NBINS = 64 * 64  # 64 sub-bins per octave, values < 2^64


def _log_bins(vals):
    """Monotone fixed-edge binning: floor(64*log2(v+1)) for v >= 0.
    float64(v+1) and log2 are monotone non-decreasing, so bin order
    respects value order (ties only widen bins, never reorder)."""
    import numpy as np

    return np.minimum(
        np.floor(64.0 * np.log2(vals.astype(np.float64) + 1.0)).astype(np.int64),
        _QUANT_NBINS - 1,
    )


@_register(
    "q_quality_quantiles_scalable",
    """
    SELECT lang,
           CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY length(text))
                AS BIGINT) AS p25_chars,
           CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY length(text))
                AS BIGINT) AS p50_chars,
           CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY length(text))
                AS BIGINT) AS p90_chars,
           CAST(count(*) AS BIGINT) AS n_docs
    FROM documents GROUP BY lang ORDER BY lang
    """,
)
def q_quality_quantiles_scalable(sf_dir: str, ps=(0.25, 0.5, 0.9)):
    import numpy as np
    import pyarrow.compute as pc


    names = ["p25_chars", "p50_chars", "p90_chars"]

    def project(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": b.column("lang"),
                "n_chars": pc.cast(pc.utf8_length(b.column("text")), pa.int64()),
            }
        )

    # ---- pass 1: per-(batch, lang) histogram rows → per-lang register sum
    def partial_hist(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "hist": pa.array([], pa.binary()),
                }
            )
        b = b.sort_by([("lang", "ascending")])
        langs = b.column("lang").to_numpy(zero_copy_only=False)
        bins = _log_bins(b.column("n_chars").to_numpy(zero_copy_only=False))
        starts = np.r_[0, np.nonzero(langs[1:] != langs[:-1])[0] + 1, len(langs)]
        keys, blobs = [], []
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            keys.append(langs[lo])
            blobs.append(
                np.bincount(bins[lo:hi], minlength=_QUANT_NBINS)
                .astype(np.int64)
                .tobytes()
            )
        return pa.table(
            {
                "lang": pa.array(keys, pa.string()),
                "hist": pa.array(blobs, pa.binary()),
            }
        )

    def merge_hist(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"lang": pa.array([], pa.string()), "hist": pa.array([], pa.binary())}
            )
        t = t.sort_by([("lang", "ascending")])
        langs = t.column("lang").to_numpy(zero_copy_only=False)
        blobs = t.column("hist").to_pylist()
        starts = np.r_[0, np.nonzero(langs[1:] != langs[:-1])[0] + 1, len(langs)]
        keys, merged = [], []
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            h = np.zeros(_QUANT_NBINS, dtype=np.int64)
            for blob in blobs[lo:hi]:
                h += np.frombuffer(blob, dtype=np.int64)
            keys.append(langs[lo])
            merged.append(h.tobytes())
        return pa.table(
            {
                "lang": pa.array(keys, pa.string()),
                "hist": pa.array(merged, pa.binary()),
            }
        )

    docs = _docs(sf_dir, ["lang", "text"])
    partials = map_blocks(map_blocks(docs, project), partial_hist)
    # one 32 KB row per language — bounded driver pull
    hist_rows = collect(exchange_group(partials, ["lang"], merge_hist)).to_pylist()

    # ---- resolve each target rank to (bin, rank-within-bin)
    # targets[lang] = list of (bin, k_within) aligned with ps; n_docs[lang]
    targets: dict[str, list[tuple[int, int]]] = {}
    n_docs: dict[str, int] = {}
    need_bins: dict[str, set] = {}
    for row in hist_rows:
        lang = row["lang"]
        h = np.frombuffer(row["hist"], dtype=np.int64)
        cum = np.cumsum(h)
        n = int(cum[-1])
        n_docs[lang] = n
        tl = []
        for p in ps:
            k = max(1, int(np.ceil(p * n)))  # 1-based global rank
            b = int(np.searchsorted(cum, k, side="left"))
            below = int(cum[b - 1]) if b > 0 else 0
            tl.append((b, k - below))  # 1-based rank within bin b
        targets[lang] = tl
        need_bins.setdefault(lang, set()).update(b for b, _ in tl)
    need_map = {lang: np.array(sorted(bs)) for lang, bs in need_bins.items()}

    # ---- pass 2: gather candidate-bin values only, pick order statistics
    def gather(b: pa.Table) -> pa.Table:
        t = project(b)
        if t.num_rows == 0:
            return pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "bin": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                }
            )
        langs = t.column("lang").to_numpy(zero_copy_only=False)
        vals = t.column("n_chars").to_numpy(zero_copy_only=False)
        bins = _log_bins(vals)
        keep = np.zeros(len(vals), dtype=bool)
        for lang, bs in need_map.items():
            sel = langs == lang
            keep[sel] = np.isin(bins[sel], bs)
        return pa.table(
            {
                "lang": pa.array(langs[keep], pa.string()),
                "bin": pa.array(bins[keep], pa.int64()),
                "n_chars": pa.array(vals[keep], pa.int64()),
            }
        )

    def pick(t: pa.Table) -> pa.Table:
        out = {"lang": [], **{nm: [] for nm in names}, "n_docs": []}
        if t.num_rows == 0:
            empty = pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    **{nm: pa.array([], pa.int64()) for nm in names},
                    "n_docs": pa.array([], pa.int64()),
                }
            )
            return empty
        t = t.sort_by(
            [("lang", "ascending"), ("bin", "ascending"), ("n_chars", "ascending")]
        )
        langs = t.column("lang").to_numpy(zero_copy_only=False)
        bins = t.column("bin").to_numpy(zero_copy_only=False)
        vals = t.column("n_chars").to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.nonzero(langs[1:] != langs[:-1])[0] + 1, len(langs)]
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            lang = langs[lo]
            out["lang"].append(lang)
            out["n_docs"].append(n_docs[lang])
            lb, lv = bins[lo:hi], vals[lo:hi]
            for (bno, kw), nm in zip(targets[lang], names):
                s = int(np.searchsorted(lb, bno, side="left"))
                out[nm].append(int(lv[s + kw - 1]))
        return pa.table(
            {
                "lang": pa.array(out["lang"], pa.string()),
                **{nm: pa.array(out[nm], pa.int64()) for nm in names},
                "n_docs": pa.array(out["n_docs"], pa.int64()),
            }
        )

    gathered = map_blocks(docs, gather)
    return exchange_group(gathered, ["lang"], pick, sort_by="lang")


# ---------------------------------------------------------------------------
# PII redaction. The synthetic documents carry no natural PII, so the query
# deterministically INJECTS a contact line derived from doc_id — identically
# on the Ray side and in the SQL oracle — then redacts it. That makes the
# regex passes load-bearing (every row has 1 email, 1 IP, 1 phone to find,
# plus whatever the corpus happens to contain) while keeping both sides a
# pure function of the shared input table. Both pyarrow and DuckDB run RE2,
# so the patterns (stages/textstages.PII_PATTERNS) behave identically.
# ---------------------------------------------------------------------------
@_register(
    "t_pii_redact",
    r"""
    WITH injected AS (
      SELECT doc_id,
             text || ' contact user' || doc_id || '@mail'
                  || (doc_id % 7) || '.example.com call 555-'
                  || (1000 + doc_id % 9000) || ' from 10.'
                  || (doc_id % 256) || '.' || ((doc_id // 8) % 256)
                  || '.' || (doc_id % 254 + 1) AS text
      FROM documents
    ), p1 AS (
      SELECT doc_id,
             CAST(len(regexp_extract_all(text,
                 '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT)
                 AS n_emails,
             regexp_replace(text,
                 '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                 '[EMAIL]', 'g') AS text
      FROM injected
    ), p2 AS (
      SELECT doc_id, n_emails,
             CAST(len(regexp_extract_all(text,
                 '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT)
                 AS n_ips,
             regexp_replace(text,
                 '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '[IP]', 'g')
                 AS text
      FROM p1
    )
    SELECT doc_id, n_emails, n_ips,
           CAST(len(regexp_extract_all(text, '\b\d{3}-\d{4}\b')) AS BIGINT)
               AS n_phones,
           regexp_replace(text, '\b\d{3}-\d{4}\b', '[PHONE]', 'g')
               AS redacted
    FROM p2 ORDER BY doc_id
    """,
)
def t_pii_redact(sf_dir: str):
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.textstages import PiiRedactStage

    def inject(t: pa.Table) -> pa.Table:
        d = t.column("doc_id")
        s = lambda x: pc.cast(x, pa.string())
        m = pc.binary_join_element_wise(
            t.column("text"),
            " contact user", s(d), "@mail", s(_mod(d, 7)),
            ".example.com call 555-", s(pc.add(_mod(d, 9000), 1000)),
            " from 10.", s(_mod(d, 256)),
            ".", s(_mod(pc.divide(d, 8), 256)),
            ".", s(pc.add(_mod(d, 254), 1)),
            "",
        )
        return t.set_column(t.schema.get_field_index("text"), "text", m)

    ds = map_blocks(
        map_blocks(_docs(sf_dir, ["doc_id", "text"]), inject), PiiRedactStage()
    )
    cols = ["doc_id", "n_emails", "n_ips", "n_phones", "redacted"]
    return sort_table(select_columns(ds, cols), "doc_id")


def _mod(a, m: int):
    import pyarrow.compute as pc

    # arithmetic modulo for non-negative int64 arrays (no pc.mod in older
    # pyarrow: a - (a // m) * m with integer division)
    d = pc.divide(a, m)
    return pc.subtract(a, pc.multiply(d, m))


# ---------------------------------------------------------------------------
# Rare-token fraction: the integer-exact OOV-rate quality signal (what share
# of a doc's tokens have corpus frequency < K). The scale shape inverts the
# lookup: the COMMON vocabulary (count >= K) is the zipf head — bounded by
# total_tokens / K entries — so it broadcasts to every task while the long
# tail (the unbounded side) never leaves the distributed count. Phase 1 is a
# per-batch partial token count folded through one keyed exchange with a
# HAVING-style filter; phase 2 is a pure map_batches membership test.
# ---------------------------------------------------------------------------
@_register(
    "t_rare_token_frac",
    """
    WITH toks AS (
      SELECT doc_id, unnest(list_filter(string_split(trim(text), ' '),
                                        x -> x <> '')) AS tok
      FROM documents
    ), common AS (
      SELECT tok FROM toks GROUP BY tok HAVING COUNT(*) >= 5
    )
    SELECT t.doc_id,
           CAST(COUNT(*) AS BIGINT) AS n_tokens,
           CAST(SUM(CASE WHEN c.tok IS NULL THEN 1 ELSE 0 END) AS BIGINT)
             AS n_rare
    FROM toks t LEFT JOIN common c ON t.tok = c.tok
    GROUP BY t.doc_id
    ORDER BY t.doc_id
    """,
)
def t_rare_token_frac(sf_dir: str, min_count: int = 5):
    import numpy as np
    import pyarrow.compute as pc
    import ray


    docs = _docs(sf_dir, ["doc_id", "text"])

    def token_rows(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern(pc.utf8_trim_whitespace(b.column("text")), " ")
        )
        toks = toks.filter(pc.not_equal(toks, ""))
        # per-batch partial count (combiner before the exchange)
        g = pa.table({"tok": toks}).group_by("tok").aggregate([("tok", "count")])
        return g.rename_columns(["tok", "n"])

    def common_only(t: pa.Table) -> pa.Table:
        g = t.group_by("tok").aggregate([("n", "sum")])
        return g.filter(
            pc.greater_equal(g.column("n_sum"), min_count)
        ).select(["tok"])

    partials = map_blocks(docs, token_rows)
    common_ds = exchange_group(partials, ["tok"], common_only)
    common = (
        collect(common_ds, pa.schema([("tok", pa.string())]))
        .column("tok")
        .combine_chunks()
    )
    common_ref = ray.put(common)  # broadcast once, read per task

    class RareFrac:
        def __init__(self, ref):
            self.common = ray.get(ref)  # zero-copy from plasma per actor

        def __call__(self, b: pa.Table) -> pa.Table:
            text = b.column("text")
            lt = pc.split_pattern(pc.utf8_trim_whitespace(text), " ")
            flat = pc.list_flatten(lt)
            parent = pc.list_parent_indices(lt).to_numpy(zero_copy_only=False)
            keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            parent = parent[keep]
            flat = flat.filter(pa.array(keep))
            rare = pc.invert(
                pc.fill_null(pc.is_in(flat, value_set=self.common), False)
            ).to_numpy(zero_copy_only=False)
            n_tok = np.bincount(parent, minlength=b.num_rows).astype(np.int64)
            n_rare = np.bincount(
                parent, weights=rare.astype(np.float64), minlength=b.num_rows
            ).astype(np.int64)
            out = pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "n_tokens": pa.array(n_tok, pa.int64()),
                    "n_rare": pa.array(n_rare, pa.int64()),
                }
            )
            # the oracle's GROUP BY drops token-less docs; mirror that
            return out.filter(pc.greater(out.column("n_tokens"), 0))

    scored = map_blocks(docs, RareFrac(common_ref))
    return sort_table(scored, "doc_id")


# ---------------------------------------------------------------------------
# Data mixing: TEMPERATURE-rebalanced sampling (T = 2, the standard
# multilingual up/down-weighting: a language's share of the sampled budget
# is proportional to sqrt(its corpus count), flattening the head and
# boosting the tail). All arithmetic is INTEGER — isqrt + integer division
# — so the per-language quotas are bit-exactly reproducible in SQL with no
# float pow/sum ordering hazards. Selection within a language is ascending
# md5(doc_id) (same stable rule as t_mix_language_quota). Distributed shape:
# O(langs) driver counts (one grouped aggregate), per-batch
# top-k_l prune, ONE keyed exchange on lang for the exact final pick.
# ---------------------------------------------------------------------------
@_register(
    "t_mix_temperature",
    """
    WITH counts AS (
      SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM documents GROUP BY lang
    ), s0 AS (
      SELECT lang, n, CAST(floor(sqrt(CAST(n AS DOUBLE))) AS BIGINT) AS r
      FROM counts
    ), s AS (  -- exact integer sqrt: correct the float estimate both ways
      SELECT lang,
             CASE WHEN (r + 1) * (r + 1) <= n THEN r + 1
                  WHEN r * r > n THEN r - 1
                  ELSE r END AS sq
      FROM s0
    ), quota AS (
      SELECT lang, (400 * sq) // (SELECT SUM(sq) FROM s) AS k FROM s
    ), ranked AS (
      SELECT lang, doc_id,
             row_number() OVER (
               PARTITION BY lang
               ORDER BY CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
                             AS UBIGINT), doc_id
             ) AS rk
      FROM documents
    )
    SELECT lang, doc_id
    FROM ranked JOIN quota USING (lang)
    WHERE rk <= k
    ORDER BY lang, doc_id
    """,
)
def t_mix_temperature(sf_dir: str, budget: int = 400):
    import math

    import numpy as np
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64

    docs = _docs(sf_dir, ["lang", "doc_id"])

    # phase 1: per-language counts (one grouped aggregate, O(langs) rows)
    counts = collect(partial_final_groupby(docs, ["lang"], [([], "count_all", "n")]))
    sq = {r["lang"]: math.isqrt(r["n"]) for r in counts.to_pylist()}
    ssum = sum(sq.values())
    k_by_lang = {l: (budget * s) // ssum for l, s in sq.items()} if ssum else {}

    # phase 2: stable per-language top-k_l by md5 order
    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        hu = md5_hash64(pc.cast(t.column("doc_id"), pa.string()))
        h = (hu ^ np.uint64(1 << 63)).view(np.int64)  # uint64 order as int64
        langs = t.column("lang").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h, langs))
        ls, hs = langs[order], h[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(ls[1:] != ls[:-1]) + 1, [len(ls)])
        )
        keep = np.zeros(len(ls), dtype=bool)
        for i in range(len(starts) - 1):  # O(langs) iterations, not O(rows)
            s, e = int(starts[i]), int(starts[i + 1])
            keep[s : min(s + k_by_lang.get(ls[s], 0), e)] = True
        return t.take(pa.array(order[keep]))

    pruned = map_blocks(docs, pick)  # ≤ Σk per batch
    return exchange_group(
        pruned,
        ["lang"],
        lambda t: pick(t).select(["lang", "doc_id"]),
        sort_by=["lang", "doc_id"],
    )


# ---------------------------------------------------------------------------
# Stratified hash sampling: an independent deterministic rate PER STRATUM
# (here: keep 10% of the head language, 50% of the tail) — the standard
# "downsample the dominant language, keep the rare ones" mixing move. Pure
# map_batches filter like t_hash_sample — no shuffle, stable under
# repartitioning and corpus growth (membership depends only on doc_id).
# ---------------------------------------------------------------------------
_STRATA_RATES = {"en": 10}  # percent; every other lang falls back to 50
_STRATA_DEFAULT = 50


def _stratified_sql() -> str:
    whens = " ".join(
        f"WHEN lang = '{lang}' THEN {rate}" for lang, rate in _STRATA_RATES.items()
    )
    return f"""
    SELECT doc_id, lang
    FROM (
      SELECT doc_id, lang,
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
                  AS UBIGINT) AS h,
             CASE {whens} ELSE {_STRATA_DEFAULT} END AS rate
      FROM documents
    )
    WHERE h % 100 < rate
    ORDER BY doc_id
    """


@_register("t_stratified_sample", _stratified_sql())
def t_stratified_sample(sf_dir: str):
    import numpy as np
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64

    docs = _docs(sf_dir, ["doc_id", "lang"])

    def sample(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        h = md5_hash64(pc.cast(b.column("doc_id"), pa.string())) % np.uint64(100)
        rates = np.full(b.num_rows, _STRATA_DEFAULT, dtype=np.uint64)
        langs = b.column("lang")
        for lang, rate in _STRATA_RATES.items():
            mask = pc.fill_null(pc.equal(langs, lang), False).to_numpy(
                zero_copy_only=False
            )
            rates[mask] = rate
        return b.filter(pa.array(h < rates))

    return sort_table(map_blocks(docs, sample), "doc_id")


# ---------------------------------------------------------------------------
# URL canonicalization — the normalize-before-key step every web CDC/dedup
# pipeline runs before grouping by url (lowercase scheme+host, strip default
# port, drop fragment, remove utm_* tracking params, collapse the trailing
# slash). Raw URLs are derived deterministically from the documents table
# (messy case / port / fragment / tracking params vary per doc_id) and both
# engines run the SAME regex chain, so the oracle is value-exact.
# Pure map_batches over Arrow (RE2 kernels) — no shuffle, no Python rows.
# ---------------------------------------------------------------------------
_URL_SPLIT_RE = "^([A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)(.*)$"


@_register(
    "t_url_canonicalize",
    f"""
    WITH raw AS (
      SELECT doc_id,
             'HTTPS://' ||
             (CASE WHEN doc_id % 2 = 0 THEN upper(source) ELSE source END) ||
             '.Example.org:443/path/' || CAST(doc_id AS VARCHAR) ||
             (CASE WHEN doc_id % 3 = 0 THEN '/' ELSE '' END) ||
             '?utm_source=x&id=' || CAST(doc_id AS VARCHAR) || '&utm_campaign=y' ||
             (CASE WHEN doc_id % 5 = 0 THEN '#frag' ELSE '' END) AS url_raw
      FROM documents
    ), split AS (
      SELECT doc_id,
             regexp_extract(url_raw, '{_URL_SPLIT_RE}', 1) AS head,
             regexp_extract(url_raw, '{_URL_SPLIT_RE}', 2) AS tail
      FROM raw
    )
    SELECT doc_id,
           regexp_replace(lower(head), ':443$', '') ||
           regexp_replace(regexp_replace(regexp_replace(regexp_replace(
             tail, '#.*$', '', 'g'), '\\?utm_[^&]*&', '?', 'g'),
             '&utm_[^&]*', '', 'g'),
             '/+(\\?|$)', '\\1', 'g') AS url_canonical
    FROM split
    ORDER BY doc_id
    """,
)
def t_url_canonicalize(sf_dir: str):
    import numpy as np
    import pyarrow.compute as pc

    docs = _docs(sf_dir, ["doc_id", "source"])

    def canonicalize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "url_canonical": pa.array([], pa.string()),
                }
            )
        ids = b.column("doc_id")
        idn = ids.to_numpy()
        ids_s = pc.cast(ids, pa.string())
        n = b.num_rows

        def const(s):
            return pa.array([s] * n)

        host_src = pc.if_else(
            pa.array(idn % 2 == 0), pc.utf8_upper(b.column("source")), b.column("source")
        )
        raw = pc.binary_join_element_wise(
            const("HTTPS://"),
            host_src,
            const(".Example.org:443/path/"),
            ids_s,
            pc.if_else(pa.array(idn % 3 == 0), const("/"), const("")),
            const("?utm_source=x&id="),
            ids_s,
            const("&utm_campaign=y"),
            pc.if_else(pa.array(idn % 5 == 0), const("#frag"), const("")),
            "",
        )
        ext = pc.extract_regex(
            raw, "^(?P<head>[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)(?P<tail>.*)$"
        )
        head = pc.replace_substring_regex(
            pc.utf8_lower(pc.struct_field(ext, "head")), ":443$", ""
        )
        tail = pc.struct_field(ext, "tail")
        tail = pc.replace_substring_regex(tail, "#.*$", "")
        tail = pc.replace_substring_regex(tail, r"\?utm_[^&]*&", "?")
        tail = pc.replace_substring_regex(tail, "&utm_[^&]*", "")
        tail = pc.replace_substring_regex(tail, r"/+(\?|$)", r"\1")
        return pa.table(
            {
                "doc_id": ids,
                "url_canonical": pc.binary_join_element_wise(head, tail, ""),
            }
        )

    return sort_table(map_blocks(docs, canonicalize), "doc_id")


# ---------------------------------------------------------------------------
# Weighted deterministic sampling: inclusion probability proportional to a
# per-row weight (here n_chars, capped at 1) — longer documents are more
# likely kept, membership is a pure function of doc_id so the sample is
# stable across runs/cluster sizes/resumes. No shuffle.
# ---------------------------------------------------------------------------
@_register(
    "t_weighted_sample",
    """
    SELECT doc_id, lang, n_chars
    FROM (
      SELECT doc_id, lang, n_chars,
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
                  AS UBIGINT) AS h
      FROM documents
    )
    WHERE h % 2000 < n_chars // 2
    ORDER BY doc_id
    """,
)
def t_weighted_sample(sf_dir: str):
    import numpy as np
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64

    docs = _docs(sf_dir, ["doc_id", "lang", "n_chars"])

    def sample(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        h = md5_hash64(pc.cast(b.column("doc_id"), pa.string())) % np.uint64(2000)
        # integer weight: n_chars // 2 of 2000 slots (SQL integer division)
        w = (b.column("n_chars").to_numpy() // 2).astype(np.uint64)
        return b.filter(pa.array(h < w))

    return sort_table(map_blocks(docs, sample), "doc_id")
