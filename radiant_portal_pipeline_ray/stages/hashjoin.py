"""Partitioned hash join for two LARGE sides (explicit bucketed shuffle).

When neither side fits a broadcast (reference J2's fallback:
"else co-partitioned map_groups merge", SURVEY §2.4): hash-co-partition both
sides on ``stable_hash(keys) % B`` through the task shuffle
(stages/taskshuffle.py — one plasma materialization per side, no sort) and
join each aligned bucket pair with pyarrow's Acero ``Table.join``. One
all-to-all exchange; per-bucket work is a vectorized C++ hash join.

Supports composite keys and every Acero join type; the short aliases
``left/right/full/semi/anti`` map onto Acero's names (reference J2 is a
composite-key LEFT join,
`radiant/dags/sql/radiant/germline_snv_occurrence_insert_partition_delta.sql:65-72`;
J3's ``LEFT ANTI JOIN`` is `variant_lookup_insert_hashes.sql:1-6`).

Per-bucket correctness: all rows of a key land in one bucket on both sides,
so inner/left/right/full/semi/anti each decompose exactly over buckets.

Skew note: a hot join key lands one bucket; raise ``num_buckets`` or
pre-salt hot keys (functions/hashing.assign_parts shows the persisted-salt
pattern). Bucket count B is the partitioning-assumption knob this operator
documents and relies on: each bucket's two sides must fit one worker.
"""

from __future__ import annotations

import pyarrow as pa
from ray.data import Dataset

#: convenience aliases → Acero join_type names
_JOIN_TYPES = {
    "inner": "inner",
    "left": "left outer",
    "left outer": "left outer",
    "right": "right outer",
    "right outer": "right outer",
    "full": "full outer",
    "full outer": "full outer",
    "semi": "left semi",
    "left semi": "left semi",
    "anti": "left anti",
    "left anti": "left anti",
    "right semi": "right semi",
    "right anti": "right anti",
}


def hash_partitioned_join(
    left: Dataset,
    right: Dataset,
    left_on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "inner",
    num_buckets: int = 16,
) -> Dataset:
    """Join two Datasets on one or more key columns. Non-key column sets
    must be disjoint (standard relational hygiene)."""
    left_keys = [left_on] if isinstance(left_on, str) else list(left_on)
    right_on = left_on if right_on is None else right_on
    right_keys = [right_on] if isinstance(right_on, str) else list(right_on)
    if len(left_keys) != len(right_keys):
        raise ValueError("left_on and right_on must have the same arity")
    join_type = _JOIN_TYPES.get(how)
    if join_type is None:
        raise ValueError(f"unsupported join type {how!r}")

    from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_join

    def join_bucket(lt_: pa.Table, rt_: pa.Table) -> pa.Table:
        joined = lt_.join(
            rt_, keys=left_keys, right_keys=right_keys, join_type=join_type
        )
        return joined.combine_chunks()

    # Each side exchanges independently through the task shuffle (one plasma
    # materialization, no sort, no union/column-padding pass); aligned bucket
    # pairs join with Acero's C++ hash join. Empty sides arrive as typed
    # empty tables so outer joins stay exact per bucket.
    return exchange_join(
        left, right, left_keys, right_keys, num_buckets, join_bucket
    )
