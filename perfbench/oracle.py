"""Independent correctness oracles.

CDC workloads: a last-writer-wins fold over the generated change stream,
ordered by ``(warc_ts, lsn)`` per url, written with plain pyarrow. The engine's
committed snapshot must hold exactly the fold's live urls with the winning
``lsn`` and ``html``, and ``text`` equal to the text the generator says the
html extracts to. A change feed between two versions must equal the diff of
the fold's states at those versions.

Query workload: the registry's DuckDB SQL, run once in setup.

Every function returns a count of mismatched rows; 0 means correct.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

STATE_COLS = ["url", "lsn", "warc_ts", "op", "html", "text"]


def lww_fold(events: list[pa.Table], prior: pa.Table | None = None) -> pa.Table:
    """Per-url winner of ``prior`` plus ``events`` by ``(warc_ts, lsn)``.

    The result keeps delete winners (``op == 'D'``) as tombstones: they are
    needed to fold later events and to classify change-feed deletes.
    """
    parts = [t.select(STATE_COLS) for t in events]
    if prior is not None:
        parts.insert(0, prior)
    t = pa.concat_tables(parts)
    if t.num_rows == 0:
        return t
    t = t.take(
        pc.sort_indices(
            t,
            sort_keys=[("url", "ascending"), ("warc_ts", "ascending"),
                       ("lsn", "ascending")],
        )
    )
    urls = t.column("url").to_numpy(zero_copy_only=False)
    last = np.empty(len(urls), dtype=bool)
    last[:-1] = urls[:-1] != urls[1:]
    last[-1] = True
    return t.filter(pa.array(last))


def live(state: pa.Table) -> pa.Table:
    return state.filter(pc.not_equal(state.column("op"), "D"))


def _null_safe_equal(a, b) -> np.ndarray:
    eq = pc.fill_null(pc.equal(a, b), False)
    both_null = pc.and_(pc.is_null(a), pc.is_null(b))
    return pc.or_(eq, both_null).to_numpy(zero_copy_only=False)


def _by_url(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))


def keyed_mismatch(got: pa.Table, want: pa.Table, cols: list[str]) -> int:
    """Rows that differ between two url-keyed tables: urls on one side only,
    duplicated urls in ``got``, and common urls whose ``cols`` differ."""
    dup = got.num_rows - pc.count_distinct(got.column("url")).as_py()
    g_in_w = pc.is_in(got.column("url"), value_set=want.column("url"))
    w_in_g = pc.is_in(want.column("url"), value_set=got.column("url"))
    only = (
        got.num_rows - pc.sum(g_in_w).as_py() if got.num_rows else 0
    ) + (want.num_rows - pc.sum(w_in_g).as_py() if want.num_rows else 0)
    g = _by_url(got.filter(g_in_w)) if got.num_rows else got
    w = _by_url(want.filter(w_in_g)) if want.num_rows else want
    if dup or g.num_rows != w.num_rows:
        # duplicates break the row alignment: count every common row as bad
        return int(dup + only + max(g.num_rows, w.num_rows))
    ok = np.ones(g.num_rows, dtype=bool)
    for c in cols:
        ok &= _null_safe_equal(g.column(c), w.column(c))
    return int(only + (~ok).sum())


def snapshot_mismatch(snapshot: pa.Table, state: pa.Table) -> int:
    """Committed live rows (url, lsn, html, text) against the fold's state."""
    return keyed_mismatch(
        snapshot.select(["url", "lsn", "html", "text"]),
        live(state).select(["url", "lsn", "html", "text"]),
        ["lsn", "html", "text"],
    )


def key_mismatch(rows: pa.Table, state: pa.Table) -> int:
    """A projection (url, lsn) of committed live rows against the fold."""
    return keyed_mismatch(
        rows.select(["url", "lsn"]), live(state).select(["url", "lsn"]), ["lsn"]
    )


def expected_changes(state_from: pa.Table, state_to: pa.Table) -> pa.Table:
    """``(change_op, url, lsn_from, lsn_to)`` between two fold states."""
    a = state_from.select(["url", "lsn", "op"]).rename_columns(
        ["url", "lsn_from", "op_from"]
    )
    b = state_to.select(["url", "lsn", "op"]).rename_columns(
        ["url", "lsn_to", "op_to"]
    )
    j = a.join(b, keys="url", join_type="full outer")
    live_from = pc.fill_null(pc.not_equal(j.column("op_from"), "D"), False)
    live_to = pc.fill_null(pc.not_equal(j.column("op_to"), "D"), False)
    lf = pc.fill_null(j.column("lsn_from"), -1)
    lt = pc.fill_null(j.column("lsn_to"), -1)
    is_i = pc.and_(pc.invert(live_from), live_to)
    is_d = pc.and_(live_from, pc.invert(live_to))
    is_u = pc.and_(pc.and_(live_from, live_to), pc.not_equal(lf, lt))
    op = pc.if_else(is_i, "I", pc.if_else(is_d, "D", "U"))
    out = pa.table(
        {
            "change_op": op,
            "url": j.column("url"),
            "lsn_from": pc.cast(j.column("lsn_from"), pa.int64()),
            "lsn_to": pc.cast(j.column("lsn_to"), pa.int64()),
        }
    )
    return out.filter(pc.or_(pc.or_(is_i, is_d), is_u))


def changes_mismatch(got: pa.Table, state_from: pa.Table, state_to: pa.Table) -> int:
    return keyed_mismatch(
        got.select(["url", "change_op", "lsn_from", "lsn_to"]),
        expected_changes(state_from, state_to),
        ["change_op", "lsn_from", "lsn_to"],
    )


def _canonical_rows(t: pa.Table) -> Counter:
    df = t.select(sorted(t.column_names)).to_pandas()
    df = df.astype(object).where(df.notna(), None)
    return Counter(map(tuple, df.itertuples(index=False, name=None)))


def result_mismatch(got: pa.Table, want: pa.Table) -> int:
    """Rows in one query result and not the other (as multisets), after
    ordering columns by name; dtypes are ignored, values are not."""
    if sorted(got.column_names) != sorted(want.column_names):
        return max(got.num_rows, want.num_rows, 1)
    g, w = _canonical_rows(got), _canonical_rows(want)
    return max(sum((g - w).values()), sum((w - g).values()))
