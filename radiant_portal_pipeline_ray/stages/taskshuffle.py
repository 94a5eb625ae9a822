"""Task-based keyed exchange for the CDC merge (single-materialization shuffle).

Why not Ray Data's ``groupby(part).map_groups``? Measured on the bench
replay (BASELINE.md, round 3): the sort-based shuffle moves the full-width
delta through plasma three times (materialize → SortMap slices →
SortReduce concat) plus a boundary-sampling pass, and the page-fault cost
of that traffic on a shared VM *poisons every subsequent phase* (a
post-sort read burns 10-20× the CPU of the same read pre-sort — almost
all kernel time). The apply round's only exchange is therefore this
minimal-copy shape:

  one raw Ray task per changelog chunk: read its row groups (pyarrow,
  worker-local, no object store) → transform (normalize / snapshot-cast)
  → split by ``part % n_buckets`` → return one Arrow sub-table PER BUCKET
  via static multi-returns (each its own plasma object, owned by the
  driver, reconstructable from task lineage on worker loss)

  one raw Ray task per bucket: its column of the ref matrix arrives as
  top-level task args (Ray resolves them zero-copy before the task runs)
  → concat → ``MergeKernel.merge_parts``: one vectorized LWW pass over
  the bucket's partitions (batched by carried bytes), then one staged
  write per partition

The two task bodies are plain functions (``split_chunk``,
``merge_bucket``); ``split_task`` and ``merge_bucket_task`` are their Ray
tasks. When the Ray cluster has one CPU, the round calls the same two
functions in-process on the driver, over one bucket: there the tasks would
run one at a time in one worker, adding pickling, object-store copies and
a second process, but no parallelism. The decision weighs CPUs only; no
benchmark workload has a one-CPU round large enough to time a size bound
against.

Every task here that consumes other tasks' outputs (the CDC merge, the
generic exchange's split and bucket tasks below, and the level-2
``subsplit_task``) takes its refs as top-level args, never via ``ray.get``
inside the task: a task blocked in ``ray.get`` releases its CPU, and Ray
starts one more worker process to fill the slot.

The delta is materialized into the object store exactly ONCE (the bucket
sub-tables); there is no sort, no boundary sampling, and no driver-side
row data. Grouping on a known small integer key domain is the one
primitive ``ray.data.Dataset`` can't express without a sort; plain tasks
keep every intermediate in plasma (spillable, zero-copy reads) and make
merge parallelism scheduler-native.

Exactly-once: split tasks are deterministic pure functions of
(files, row groups, transform), so Ray lineage reconstruction after a lost
worker re-creates byte-identical sub-tables; the merge kernel is
deterministic (stages/merge.py); the round publishes nothing until the
manifest commit. Reference analogue: per-partition import runs are the
all-or-nothing retry unit (`radiant/dags/import_part.py`).

Partitioning assumptions of the generic keyed exchange below:
- every row of a key lands in exactly one bucket (``hash(key) % B``), so
  any per-key kernel decomposes exactly over buckets;
- ONE bucket's rows (both sides, for joins) must fit a worker's heap. The
  bucket count B comes from the exchanged bytes alone
  (:func:`bucket_count`: at most 2 × ``_TARGET_BUCKET_BYTES`` per bucket
  on an even key spread), and no caller sets it. A hot key is not
  spread by any B: salting it upstream is the partitioner's job
  (state/partitioner.py);
- driver metadata is O(tasks × buckets) ObjectRefs at level one. When
  (tasks × buckets) exceeds ``_REF_BUDGET`` the exchange automatically
  adds a SECOND level: level-1 tasks split into G groups (G | B, so the
  modulo hashes agree), one ``subsplit_task`` per group re-splits its
  group's sub-tables into the B/G final buckets. Driver refs drop from
  T×B to T×G + B (G ≈ √B, floored by a per-group heap bound) at the cost
  of one extra plasma copy of the exchanged bytes. Block-count-based
  chunking assumes roughly equal-sized input blocks (true for
  row-group-granular reads).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from radiant_portal_pipeline_ray.stages.merge import MERGE_LAYERS, MergeKernel

#: a split task's in-task figures (its stats' ``layers``): row-group read
#: and decode, the transform (normalize / snapshot-cast), the bucket split,
#: in seconds; and the bytes of the bucket tables it returns
SCOUT_LAYERS = ("read_s", "normalize_s", "split_s", "bytes_out")

#: malformed rows one apply round keeps for its quarantine, the first in
#: chunk order; each split call keeps at most this many as well, so what a
#: round keeps does not depend on how many chunks it has
QUARANTINE_CAP = 100_000


def enumerate_units(
    paths: list[str],
    metas: dict[str, object] | None = None,
    filesystem=None,
) -> list[tuple[str, int]]:
    """(path, row_group) work units — row-group granularity so a 2-file tail
    round still fans out across the cluster. ``metas`` may carry pre-read
    ``FileMetaData`` (the apply plan already does one threaded footer pass).
    ``filesystem``: fsspec fs for object-store lake files (None = local)."""
    units: list[tuple[str, int]] = []
    for p in paths:
        md = metas.get(p) if metas else None
        if md is None:
            md = pq.read_metadata(p, filesystem=filesystem)
        units.extend((p, rg) for rg in range(md.num_row_groups))
    return units


def ray_cpus(default: int = 8) -> int:
    """CPUs of the Ray cluster; ``default`` when no session is up yet (8
    for a planner whose first task submission starts one, 1 for a driver
    read that starts none)."""
    if not ray.is_initialized():
        return default
    return int(ray.cluster_resources().get("CPU", default))


def merge_bucket_count(cpus: int, n_parts: int) -> int:
    """Merge fan-out of an apply round: 2×CPUs buckets (the same rule as
    the split side's ``chunk_units(units, 2 * cpus)``), never more than
    there are partitions to merge."""
    return max(1, min(2 * cpus, n_parts))


def chunk_units(
    units: list[tuple[str, int]], n_tasks: int
) -> list[list[tuple[str, int]]]:
    """Contiguous chunks (consecutive row groups of one file stay together →
    one ParquetFile open per file per task)."""
    n_tasks = max(1, min(n_tasks, len(units)))
    size = -(-len(units) // n_tasks)
    return [units[i : i + size] for i in range(0, len(units), size)]


def valid_lsn_max(st) -> int | None:
    """A row group's max lsn when its lsn column statistics ``st`` prove
    every lsn valid (non-null, ≥ 0); None when they cannot — a row group
    with a ``bad_lsn`` row must be read, never pruned by its max."""
    if (
        st is None
        or not st.has_min_max
        or not st.has_null_count
        or st.null_count
        or st.min is None
        or st.min < 0
    ):
        return None
    return int(st.max)


def _lsn_col_index(md) -> int:
    for i in range(md.num_columns):
        if md.row_group(0).column(i).path_in_schema == "lsn":
            return i
    return -1


def split_chunk(
    units: list[tuple[str, int]],
    transform,
    n_buckets: int,
    min_lsn: int | None,
    filesystem=None,
    exclude_cols: tuple = (),
    fault_inject: tuple | None = None,
    consumed: frozenset = frozenset(),
):
    """Read assigned row groups → transform → split by bucket. Returns
    ``(stats, bucket_0, ..., bucket_{n-1})``; empty buckets are None.
    ``stats["layers"]`` holds the call's ``SCOUT_LAYERS``. The apply round
    calls it in-process or as :data:`split_task` (launch with
    ``.options(num_returns=n_buckets + 1)``).

    ``fault_inject`` (tests only): ``("scout", dir)`` makes the first such
    task hard-kill its worker once — see ``chaos.maybe_die_once``.

    ``min_lsn`` enables row-group pruning on lsn statistics
    (``valid_lsn_max``; resume / replay-from-backlog rounds where most of
    the tail is pre-watermark); exact per-partition watermark filtering
    happens inside ``transform``.

    ``exclude_cols`` prunes columns at the parquet decode: the normalizer
    path passes ``("text",)`` because the committed snapshot NEVER trusts
    incoming text (the normalizer nulls it and the merge computes
    ``extract_text(html)`` for the LWW winners) — the changelog's text
    column is ~40% of its bytes, all wasted decode (measured 1.3× scout
    speedup at 2M events). The caster path passes nothing: carried
    snapshot rows keep their committed text verbatim.

    ``consumed``: input paths an earlier commit already consumed. Their
    malformed rows are already in the quarantine, so they are not
    returned again.
    """
    from radiant_portal_pipeline_ray.chaos import maybe_die_once

    maybe_die_once(fault_inject, "scout")
    by_file: dict[str, list[int]] = {}
    for p, rg in units:
        by_file.setdefault(p, []).append(rg)

    # bucket per ROW GROUP, concat per bucket at the end: peak heap is one
    # row group's working copies plus the (inevitable) accumulated output —
    # never a whole-chunk concat+argsort (3-4x chunk bytes on a fat chunk,
    # e.g. the 2-CPU leg where one task owns 16 files)
    per_bucket: list[list[pa.Table]] = [[] for _ in range(n_buckets)]
    events = 0
    parts_seen: set[int] = set()
    #: malformed events split off by the normalizer (quarantine mode): the
    #: rows ride back in the stats object — pathological by definition, so
    #: capped per call (the round caps their sum again); overflow is
    #: counted, never silently lost
    q_tables: list[pa.Table] = []
    q_rows = 0
    q_dropped = 0
    layers = dict.fromkeys(SCOUT_LAYERS, 0.0)
    t_mark = time.perf_counter()

    def _lap(name: str) -> None:
        nonlocal t_mark
        now = time.perf_counter()
        layers[name] += now - t_mark
        t_mark = now

    for p, rgs in by_file.items():
        pf = (
            pq.ParquetFile(filesystem.open(p, "rb"))
            if filesystem is not None
            else pq.ParquetFile(p)
        )
        md = pf.metadata
        if min_lsn is not None:
            ci = _lsn_col_index(md)
            if ci >= 0:
                kept = []
                for rg in rgs:
                    mx = valid_lsn_max(md.row_group(rg).column(ci).statistics)
                    if mx is not None and mx <= min_lsn:
                        continue
                    kept.append(rg)
                rgs = kept
        read_cols = None
        if exclude_cols:
            read_cols = [
                c for c in pf.schema_arrow.names if c not in exclude_cols
            ]
        for rg in rgs:
            _lap("read_s")  # the file open and row-group pruning
            t = pf.read_row_group(rg, columns=read_cols)
            _lap("read_s")
            t = transform(t)
            _lap("normalize_s")
            if isinstance(t, tuple):
                t, qt = t
                if qt is not None and qt.num_rows and p not in consumed:
                    take = min(qt.num_rows, QUARANTINE_CAP - q_rows)
                    if take > 0:
                        q_tables.append(qt.slice(0, take))
                        q_rows += take
                    q_dropped += qt.num_rows - take
            if not t.num_rows:
                continue
            events += t.num_rows
            parts = t.column("part").to_numpy(zero_copy_only=False)
            bucket = parts % n_buckets
            order = np.argsort(bucket, kind="stable")
            ts = t.take(pa.array(order))
            bs = bucket[order]
            bounds = np.searchsorted(bs, np.arange(n_buckets + 1))
            for b in range(n_buckets):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                if hi > lo:
                    per_bucket[b].append(ts.slice(lo, hi - lo))
            parts_seen.update(np.unique(parts).astype(int).tolist())
            _lap("split_s")

    quarantine = (
        pa.concat_tables(q_tables, promote_options="permissive").combine_chunks()
        if q_tables
        else None
    )
    buckets: list[pa.Table | None] = [
        pa.concat_tables(bl, promote_options="permissive").combine_chunks()
        if bl
        else None
        for bl in per_bucket
    ]
    _lap("split_s")
    layers["bytes_out"] = sum(b.nbytes for b in buckets if b is not None)
    stats = {"events": events, "parts": sorted(parts_seen), "layers": layers}
    if quarantine is not None:
        stats["quarantine"] = quarantine
        stats["quarantine_dropped"] = q_dropped
    return tuple([stats] + buckets)


#: :func:`split_chunk` as a Ray task, one per changelog chunk
split_task = ray.remote(split_chunk)


# ---------------------------------------------------------------------------
# Generic keyed exchange over Dataset blocks (shared by the relational
# operators): same single-materialization shape as the CDC split/merge above,
# parameterized by key columns and a per-bucket kernel. Replaces
# ``groupby(bucket).map_groups`` (Ray Data's sort-based all-to-all) for
# operators that only need hash co-location, not a global order. One core,
# ``_exchange``, serves the group-by (one side) and the join (two sides): it
# decides the bucketing, the driver-or-task path, the final order and the
# output, so a caller never appends its own sort or collect. The input plan
# runs once: it is materialized before its schema is read. ``collect`` is
# the package's one driver collect of a Dataset.
# ---------------------------------------------------------------------------

_KNUTH = np.uint64(0x9E3779B97F4A7C15)


def bucket_ids(batch: pa.Table, keys: list[str], n_buckets: int) -> np.ndarray:
    """Deterministic composite-key bucket id (vectorized)."""
    import pyarrow.compute as pc

    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for k in keys:
        col = batch.column(k)
        if pa.types.is_integer(col.type):
            # the key's bits: an unchecked cast, so uint64 keys >= 2**63 wrap
            v = (
                pc.fill_null(pc.cast(col, pa.int64(), safe=False), 0)
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
        else:
            from radiant_portal_pipeline_ray.stages.dedup import hash64_strings

            v = hash64_strings(pc.cast(col, pa.string())).astype(np.uint64)
        h = (h ^ v) * _KNUTH
    return ((h >> np.uint64(33)) % np.uint64(n_buckets)).astype(np.int64)


def split_blocks(keys: list[str], n_buckets: int, *blocks: pa.Table):
    """Concat a chunk of Dataset blocks → split by key-hash bucket
    (:func:`bucket_ids`), rows in input order within a bucket. Returns one
    sub-table (or None) per bucket, or the one bucket's when ``n_buckets``
    is 1; as :data:`bucket_split_task` via static multi-returns."""
    tabs = [t for t in blocks if t.num_rows]
    if not tabs:
        return tuple([None] * n_buckets) if n_buckets > 1 else None
    t = pa.concat_tables(tabs, promote_options="permissive").combine_chunks()
    b = bucket_ids(t, keys, n_buckets)
    order = np.argsort(b, kind="stable")
    ts = t.take(pa.array(order)).combine_chunks()
    bs = b[order]
    bounds = np.searchsorted(bs, np.arange(n_buckets + 1))
    out = [
        ts.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
        if bounds[i + 1] > bounds[i]
        else None
        for i in range(n_buckets)
    ]
    return tuple(out) if n_buckets > 1 else out[0]


#: :func:`split_blocks` as a Ray task, one per chunk of an exchange's blocks
bucket_split_task = ray.remote(split_blocks)


def _concat_or_empty(tabs: list, schema: pa.Schema) -> pa.Table:
    tabs = [t for t in tabs if t is not None and t.num_rows]
    if not tabs:
        return schema.empty_table()
    return pa.concat_tables(tabs, promote_options="permissive").combine_chunks()


def collect(ds, schema: pa.Schema | None = None) -> pa.Table:
    """Every row of ``ds`` (a driver-local table or a Dataset) as one Arrow
    table on the driver, in block order. With no rows it is the typed empty
    table of ``schema`` when given, else of ``ds``'s own (its first block's;
    no columns when a Dataset has no blocks). The one driver collect of the
    package: callers bound its size (a folded aggregate, a candidate set, a
    small increment)."""
    if isinstance(ds, pa.Table):
        return _concat_or_empty([ds], schema or ds.schema)
    # materialized first: a lazy Dataset's to_arrow_refs runs its plan, then
    # runs it again for the schema when the plan cannot infer one
    tabs = ray.get(materialized(ds).to_arrow_refs())
    if schema is None:
        schema = tabs[0].schema if tabs else pa.schema([])
    return _concat_or_empty(tabs, schema)


def num_rows(ds) -> int:
    """Rows of a driver-local table, or ``ds.count()`` of a Dataset (no
    execution once it is materialized)."""
    return ds.num_rows if isinstance(ds, pa.Table) else ds.count()


def schema_of(ds) -> pa.Schema | None:
    """The schema of a table or a Dataset; None for a Dataset with no
    blocks and for a table of no columns, the no-rows result of a map."""
    if isinstance(ds, pa.Table):
        return ds.schema if ds.num_columns else None
    sch = ds.schema()
    return None if sch is None else pa.schema(sch.base_schema)


def select_columns(ds, cols: list[str]):
    """``ds`` projected to ``cols``: ``Dataset.select_columns`` of a
    Dataset, ``Table.select`` of a table; a table of no columns (a map's
    no-rows result) stays as is, as a Dataset without a schema does."""
    if not isinstance(ds, pa.Table):
        return ds.select_columns(cols)
    return ds.select(cols) if ds.num_columns else ds


def union(*parts):
    """``parts`` as one value, their rows in order: the concatenated tables
    when every part is a table, else one materialized Dataset of every
    part's blocks, each table wrapped once (``Dataset.union`` would start
    an execution to materialize it); no blocks give a Dataset with none."""
    import ray.data as rd

    if all(isinstance(p, pa.Table) for p in parts):
        return pa.concat_tables(parts, promote_options="permissive")
    refs = [r for p in parts for r in materialized(as_dataset(p)).to_arrow_refs()]
    return rd.from_arrow_refs(refs).materialize() if refs else local_dataset()


@ray.remote
def _filter_task(pred, t: pa.Table) -> pa.Table:
    return t.filter(pred(t))


def collect_where(ds, pred) -> pa.Table:
    """The rows of ``ds`` where the mask ``pred(table)`` holds, as one
    driver table typed as ``ds`` (the over-cap markers of a pair set, say).
    The filter runs where the rows are: on the driver for a table or a
    Dataset of at most ``_DRIVER_LOCAL_BYTES``, else one task per block, so
    only the kept rows travel. A materialized ``ds`` starts no Ray Data
    execution."""
    if isinstance(ds, pa.Table):
        return collect(ds.filter(pred(ds)), ds.schema)
    ds = materialized(ds)
    refs = ds.to_arrow_refs()
    if int(ds.size_bytes() or 0) <= _DRIVER_LOCAL_BYTES:
        tabs = [t.filter(pred(t)) for t in ray.get(refs)]
    else:
        tabs = ray.get([_filter_task.remote(pred, r) for r in refs])
    return _concat_or_empty(tabs, schema_of(ds))


@ray.remote
def bucket_task(fn, schemas: list, counts: list[int], *tables: pa.Table | None):
    """One bucket of a keyed exchange: ``fn`` over one typed table per
    side. ``tables`` are the bucket's sub-tables, side after side,
    ``counts[i]`` of them for side ``i`` (None = an empty split output); a
    side with none arrives as ``schemas[i]``'s empty table."""
    sides, i = [], 0
    for schema, n in zip(schemas, counts):
        sides.append(_concat_or_empty(tables[i : i + n], schema))
        i += n
    return fn(*sides)


#: target bytes per bucket/split-task — sized so the (tasks × buckets)
#: object count stays small for small inputs (a 40 MB partial table gets 4
#: buckets, not 64×64 = 4096 tiny plasma objects) while one bucket of a
#: large input still fits a worker's heap (:func:`bucket_count`).
_TARGET_BUCKET_BYTES = 64 << 20

#: the one driver-or-tasks size threshold: a file read (``state/lakescan``)
#: planning at most this many bytes reads in-process into one ``pa.Table``,
#: and an exchange of at most this many bytes runs its kernel once on the
#: driver. A driver-local value is that table: a row-wise map
#: (:func:`map_blocks`), a sort (:func:`sort_table`), :func:`collect` and
#: the exchanges take it and return a table, so small data read on the
#: driver stays there, and no ``Dataset`` is built between two operators.
#: A ``Dataset`` is built once, at a public boundary
#: (``CdcEngine.read_snapshot``, ``__ray_entry__.queries()``), or when a
#: table past this size goes to a task-path exchange. The apply round does
#: not weigh bytes: it runs its split and merge on the driver whenever Ray
#: has one CPU
_DRIVER_LOCAL_BYTES = 16 << 20

#: driver ObjectRef budget per exchange: above this the split runs in two
#: levels (split → per-group subsplit). Tests lower it to force the
#: two-level path at toy scale.
_REF_BUDGET = 32768

#: a level-2 subsplit task holds one whole GROUP (B/G buckets) in heap;
#: groups are sized so that never exceeds this many bytes.
_MAX_GROUP_BYTES = 1 << 30

#: introspection for tests/benchmarks: plan of the most recent split
#: ({"levels": 1|2, "n_tasks": T, "n_buckets": B, "n_groups": G,
#:   "driver_refs": peak refs held}).
last_split_plan: dict = {}


def two_level_plan(
    n_tasks: int, n_buckets: int, total_bytes: int
) -> tuple[int, int] | None:
    """Decide whether a (n_tasks × n_buckets) exchange needs a second split
    level; returns ``(n_groups, adjusted_n_buckets)`` (G | B) or None for
    single-level. G is ~√B, floored so one group's bytes fit a worker."""
    if n_tasks * n_buckets <= _REF_BUDGET or n_buckets < 4:
        return None
    g_mem = -(-total_bytes // _MAX_GROUP_BYTES)
    g_sqrt = int(np.ceil(np.sqrt(n_buckets)))
    want = max(1, min(max(g_mem, g_sqrt), n_buckets))
    # power-of-two group count: divides any power-of-two bucket count, so
    # the two sides of an exchange_join can pick different G for the SAME
    # final B (final bucket = hash % B on both sides either way)
    n_groups = 1 << (want - 1).bit_length()
    n_groups = min(n_groups, n_buckets)
    n_buckets = -(-n_buckets // n_groups) * n_groups
    return n_groups, n_buckets


@ray.remote
def subsplit_task(
    keys: list[str] | None, n_buckets: int, n_groups: int, *tables: pa.Table | None
):
    """Second exchange level: one GROUP's level-1 sub-tables → that group's
    final buckets. Level 1 grouped rows by ``hash % G``; because G | B and
    both levels share the hash, every row here satisfies ``bucket % G ==
    g`` and the local index is ``bucket // G``. ``keys=None`` selects the
    CDC part-modulo bucketing (``bucket = part % B``)."""
    n_local = n_buckets // n_groups
    tabs = [t for t in tables if t is not None and t.num_rows]
    if not tabs:
        return tuple([None] * n_local) if n_local > 1 else None
    t = pa.concat_tables(tabs, promote_options="permissive").combine_chunks()
    if keys is None:
        parts = t.column("part").to_numpy(zero_copy_only=False)
        local = ((parts % n_buckets) // n_groups).astype(np.int64)
    else:
        local = bucket_ids(t, keys, n_buckets) // n_groups
    order = np.argsort(local, kind="stable")
    ts = t.take(pa.array(order)).combine_chunks()
    ls = local[order]
    bounds = np.searchsorted(ls, np.arange(n_local + 1))
    out = [
        ts.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
        if bounds[i + 1] > bounds[i]
        else None
        for i in range(n_local)
    ]
    return tuple(out) if n_local > 1 else out[0]


def fan_subsplit(
    mat: list[list], keys: list[str] | None, n_buckets: int, n_groups: int
) -> list[list]:
    """Fan a (task × group) level-1 ref matrix through one subsplit task per
    group; returns per-final-bucket ref columns (bucket b = g + G·j lives at
    group g = b % G, local slot j = b // G)."""
    n_local = n_buckets // n_groups
    sub = subsplit_task.options(num_returns=n_local) if n_local > 1 else subsplit_task
    cols: list[list] = [[] for _ in range(n_buckets)]
    for g in range(n_groups):
        outs = sub.remote(keys, n_buckets, n_groups, *[row[g] for row in mat])
        outs = [outs] if n_local == 1 else list(outs)
        for j, r in enumerate(outs):
            cols[g + n_groups * j] = [r]
    return cols


def _split_refs(
    refs: list, keys: list[str], n_buckets: int, total_bytes: int
) -> list[list]:
    """Fan a Dataset's block refs through the (possibly two-level) split;
    returns the ``n_buckets`` per-bucket ref columns. ``n_buckets`` is a
    power of two (:func:`bucket_count`), which a two-level plan keeps: its
    power-of-two group count divides it. Empty input → empty columns
    (downstream kernels see typed empty tables)."""
    global last_split_plan
    if not refs:
        last_split_plan = {"levels": 0, "n_tasks": 0, "n_buckets": n_buckets,
                           "n_groups": 0, "driver_refs": 0}
        return [[] for _ in range(n_buckets)]
    cpus = ray_cpus()
    by_size = max(1, -(-total_bytes // (_TARGET_BUCKET_BYTES // 4)))
    n_tasks = max(1, min(2 * cpus, len(refs), by_size))
    size = -(-len(refs) // n_tasks)
    chunks = [refs[i : i + size] for i in range(0, len(refs), size)]
    plan = two_level_plan(len(chunks), n_buckets, total_bytes)
    # level one splits into the G groups of a two-level plan, else into B
    n_groups = plan[0] if plan is not None else 0
    n_out = n_groups or n_buckets
    task = bucket_split_task.options(num_returns=n_out) if n_out > 1 else bucket_split_task
    mat = [task.remote(keys, n_out, *ch) for ch in chunks]
    mat = [list(r) if n_out > 1 else [r] for r in mat]
    last_split_plan = {
        "levels": 2 if n_groups else 1, "n_tasks": len(chunks),
        "n_buckets": n_buckets, "n_groups": n_groups,
        "driver_refs": len(chunks) * n_out + (n_buckets if n_groups else 0),
    }
    if n_groups:
        return fan_subsplit(mat, keys, n_buckets, n_groups)
    return [[row[b] for row in mat] for b in range(n_buckets)]


def bucket_count(total_bytes: int) -> int:
    """The bucket count of a keyed exchange of ``total_bytes``: the largest
    power of two at most ``max(4, ceil(total_bytes / _TARGET_BUCKET_BYTES))``,
    so one bucket gets at most 2 × ``_TARGET_BUCKET_BYTES`` on an even key
    spread, and small inputs do not pay per-bucket task overhead. A power
    of two, so two-level group counts divide it and the two sides of a join
    agree on the final B."""
    v = max(4, -(-total_bytes // _TARGET_BUCKET_BYTES))
    return 1 << (v.bit_length() - 1)


def sort_spec(cols) -> list[tuple[str, bool]]:
    """``"a"`` or ``["a", ("b", "descending")]`` → ``[("a", False), ("b",
    True)]``: (name, descending) pairs."""
    if isinstance(cols, str):
        cols = [cols]
    return [
        (c, False) if isinstance(c, str) else (c[0], c[1] == "descending")
        for c in cols
    ]


def sort_table(t, sort_by):
    """``t`` in ``sort_by`` order. A table, or a materialized Dataset of at
    most ``_DRIVER_LOCAL_BYTES``, sorts on the driver into a table:
    the stable sort with nulls last that ``Dataset.sort`` runs on each of
    its blocks, so the result is the same either way. Any other Dataset
    sorts with ``Dataset.sort``. A table of no columns (no rows, no
    schema) is returned as is."""
    import pyarrow.compute as pc

    if not isinstance(t, pa.Table):
        if not _driver_local(t):
            spec = sort_spec(sort_by)
            return t.sort([c for c, _ in spec], descending=[d for _, d in spec])
        t = collect(t)
    if not t.num_columns:
        return t
    keys = [(c, "descending" if d else "ascending") for c, d in sort_spec(sort_by)]
    return t.take(pc.sort_indices(t, sort_keys=keys))


def local_dataset(*blocks: pa.Table):
    """``blocks`` as a ``MaterializedDataset`` of exactly those blocks,
    built once with its snapshot already computed, so its consumer's
    ``to_arrow_refs`` or ``materialize`` starts no Ray Data execution (a
    ``ray.data.from_arrow`` table starts one). Each call costs a stats-actor
    round trip and a ``ray.put``: driver-local operators pass tables.

    ``rd.from_blocks`` puts the blocks; its plan's snapshot is then set to
    the source's own output, the bookkeeping ``ExecutionPlan.execute``
    does for an input that is already materialized, without that call's
    resource and object-store RPCs or the two further ``Dataset`` copies
    of ``Dataset.materialize``. ``tests/test_driver_finish.py`` pins this
    use of Ray's internals: one ``Dataset`` construction, no execution."""
    import ray.data as rd
    from ray.data._internal.execution.interfaces import RefBundle

    ds = rd.from_blocks(list(blocks))
    plan, src = ds._plan, ds._logical_plan.dag
    bundles = src.output_data()
    plan._snapshot_bundle = RefBundle(
        [b for bundle in bundles for b in bundle.blocks],
        owns_blocks=False,
        schema=next((b.schema for b in bundles if b.schema is not None), None),
    )
    plan._snapshot_operator = src
    plan._snapshot_stats = plan._in_stats
    plan._has_started_execution = True
    return ds


def as_dataset(ds):
    """``ds`` as a Dataset, for a public boundary that hands one out: a
    driver-local table wrapped once (:func:`local_dataset`), a Dataset as
    is."""
    return local_dataset(ds) if isinstance(ds, pa.Table) else ds


def materialized(ds):
    """``ds`` itself when it is a driver-local table or already a
    ``MaterializedDataset`` (an exchange or task-path read result), else
    ``ds.materialize()``: a materialized Dataset is never copied into two
    more. Materialize BEFORE asking for a schema: on a lazy plan ending in
    ``map_batches``, ``schema()`` would execute the whole plan once more."""
    from ray.data.dataset import MaterializedDataset

    return ds if isinstance(ds, (pa.Table, MaterializedDataset)) else ds.materialize()


def _driver_local(ds) -> bool:
    """Whether ``ds`` is a table, or a materialized Dataset of at most
    ``_DRIVER_LOCAL_BYTES``: its rows are ready to use on the driver."""
    from ray.data.dataset import MaterializedDataset

    return isinstance(ds, pa.Table) or (
        isinstance(ds, MaterializedDataset)
        and int(ds.size_bytes() or 0) <= _DRIVER_LOCAL_BYTES
    )


def map_blocks(ds, fn, batch_size: int | None = None):
    """``ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)``
    for a row-wise or per-batch ``fn(pa.Table) -> pa.Table``, run on the
    driver when ``ds`` is driver-local (:func:`_driver_local`): ``fn`` over
    each block with rows, in slices of ``batch_size`` rows (whole blocks
    when None), the results concatenated into one table, so neither the
    map nor its consumer builds a Dataset or starts a Ray Data execution.
    As with ``map_batches``, zero-row blocks are skipped, and an input with
    no rows maps to a table with no columns (``map_batches`` gives a
    Dataset with no schema). A lazy or larger Dataset maps with
    ``map_batches``, in Ray tasks."""
    if not _driver_local(ds):
        return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)
    blocks = [ds] if isinstance(ds, pa.Table) else ray.get(ds.to_arrow_refs())
    out = []
    for t in blocks:
        step = batch_size or max(1, t.num_rows)
        out.extend(fn(t.slice(i, step)) for i in range(0, t.num_rows, step))
    return _concat_or_empty(out, out[0].schema) if out else pa.table({})


def _exchange(sides: list, keys: list[list[str]], fn, sort_by):
    """The keyed exchange of one or more typed tables or materialized
    Datasets: ``fn(*side_tables)`` once per bucket, each side split on its
    own ``keys``, in ``sort_by`` order when given.

    At most ``_DRIVER_LOCAL_BYTES`` per side: ``fn`` and the sort run once
    on the driver over the whole sides, and the result is a table, so its
    consumer builds no Dataset and starts no execution. Above it: a table
    side is wrapped once (:func:`local_dataset`), the sides split
    independently into the same power-of-two bucket count,
    :func:`bucket_count` of the larger side (no union, no column padding),
    one :func:`bucket_task` per bucket, then :func:`sort_table` (on the
    driver when the result is at most the threshold, else
    ``Dataset.sort``); unsorted, the bucket results are materialized, which
    starts no execution (``from_arrow_refs`` already waits for them) and
    spares the consumer's ``to_arrow_refs`` one."""
    import ray.data as rd

    schemas = [schema_of(d) for d in sides]
    sizes = [d.nbytes if isinstance(d, pa.Table) else int(d.size_bytes() or 0) for d in sides]
    if max(sizes) <= _DRIVER_LOCAL_BYTES:
        # tiny exchange (pre-combined partials, pruned top-k rows, a small
        # join): one vectorized kernel call beats any task fan-out
        t = fn(*(collect(d, s) for d, s in zip(sides, schemas)))
        return t if sort_by is None else sort_table(t, sort_by)
    sides = [local_dataset(d) if isinstance(d, pa.Table) else d for d in sides]
    n_buckets = bucket_count(max(sizes))
    cols = [
        _split_refs(d.to_arrow_refs(), k, n_buckets, n)
        for d, k, n in zip(sides, keys, sizes)
    ]
    out = rd.from_arrow_refs(
        [
            bucket_task.remote(
                fn, schemas, [len(c[b]) for c in cols], *(r for c in cols for r in c[b])
            )
            for b in range(n_buckets)
        ]
    )
    return out.materialize() if sort_by is None else sort_table(out, sort_by)


def exchange_group(ds, keys: list[str], fn, *, pre=None, batch_size=None, sort_by=None):
    """Hash-partition ``ds`` (a table or a Dataset) on ``keys`` and apply
    ``fn(bucket_table) -> pa.Table`` once per bucket (every row of a key in
    exactly one call; the bucket count follows from the exchanged bytes,
    see :func:`bucket_count`). Returns the concatenated results, in
    ``sort_by`` order when given (column names or ``(name,
    "descending")``): a table when the exchange ran on the driver, else a
    Dataset. One plasma materialization, no sort before the kernel; small
    inputs run on the driver (:func:`_exchange`). An input without a
    schema is returned as is (grouping is a no-op, as
    ``groupby().map_groups`` on an empty dataset: the kernel never runs).

    ``pre``: a per-batch map run first, as :func:`map_blocks` runs it with
    ``batch_size`` (a group-by's partials, a top-k prune, which shrink what
    the exchange moves). On a driver-local input its table goes straight
    to ``fn``, with no Dataset between."""
    if pre is not None:
        ds = map_blocks(ds, pre, batch_size)
    ds = materialized(ds)
    if schema_of(ds) is None:
        return ds
    return _exchange([ds], [keys], fn, sort_by)


def exchange_join(
    left,
    right,
    left_keys: list[str],
    right_keys: list[str],
    fn,
    *,
    sort_by=None,
):
    """Hash-co-partition two tables or Datasets and apply ``fn(left_bucket,
    right_bucket) -> pa.Table`` per aligned bucket pair, in ``sort_by``
    order when given (as in :func:`exchange_group`; a table when the join
    ran on the driver). Empty sides arrive as empty tables with the correct
    schema so outer joins stay exact. A side without a schema (a Dataset
    of zero blocks, a table of no columns) has nothing to type them with
    and raises ``ValueError``."""
    left, right = materialized(left), materialized(right)
    for side, d in (("left", left), ("right", right)):
        if schema_of(d) is None:
            raise ValueError(
                f"exchange_join: {side} side has zero blocks and no schema; "
                "pass a dataset with at least one (possibly empty) typed block"
            )
    return _exchange([left, right], [left_keys, right_keys], fn, sort_by)


def merge_bucket(
    kernel: MergeKernel, extra_parts: list[int], *tables: pa.Table | None
) -> tuple[list[dict], dict[str, float]]:
    """Merge + stage every partition in one bucket with
    ``MergeKernel.merge_parts``: one LWW pass per batch of partitions whose
    carried bytes fit ``_TARGET_BUCKET_BYTES``. ``tables`` is this bucket's
    column of the split outputs (None = an empty split output); as
    :data:`merge_bucket_task` they are top-level ObjectRef args, which Ray
    resolves before the task starts. ``extra_parts``: changed partitions
    owned by this bucket that shuffled no rows (e.g. local-carry-only
    partitions) — merged from an empty delta so their carried state still
    re-stages. Returns the per-partition metadata and the call's
    ``MERGE_LAYERS`` seconds."""
    tables = [t for t in tables if t is not None and t.num_rows]
    if tables:
        delta = pa.concat_tables(tables, promote_options="permissive")
    else:
        sch = kernel.union_schema
        delta = pa.Table.from_arrays(
            [pa.array([], type=f.type) for f in sch], schema=sch
        )
    seen = np.unique(delta.column("part").to_numpy(zero_copy_only=False))
    parts = [int(p) for p in seen]
    parts += sorted(set(extra_parts) - set(parts))
    layers = dict.fromkeys(MERGE_LAYERS, 0.0)
    metas = kernel.merge_parts(
        delta, parts, layers=layers, batch_bytes=_TARGET_BUCKET_BYTES
    )
    return metas, layers


#: :func:`merge_bucket` as a Ray task, one per active merge bucket
merge_bucket_task = ray.remote(merge_bucket)


def layer_summary(
    names: tuple[str, ...], ids: list[int], layers: list[dict], label: str
) -> dict:
    """Fold per-task layer figures (``layers[i]`` from task ``ids[i]``, at
    least one task): per layer the sum over tasks, the per-task median and
    the per-task max (``<layer>_p50_s`` and ``<layer>_max_s`` for a
    ``<layer>_s``, ``<layer>_p50`` and ``<layer>_max`` otherwise), plus
    ``slowest_<label>``: the task that spent the most seconds, and
    ``slowest_<label>_s``: those seconds. A max far above the p50 is a
    straggler; a p50 near the max is an even spread."""
    out: dict = {}
    for name in names:
        vals = [lay[name] for lay in layers]
        stem = name.removesuffix("_s")
        unit = "_s" if stem != name else ""
        out[name] = round(sum(vals), 6)
        out[f"{stem}_p50{unit}"] = round(float(np.median(vals)), 6)
        out[f"{stem}_max{unit}"] = round(max(vals), 6)
    secs = [n for n in names if n.endswith("_s")]
    totals = [sum(lay[n] for n in secs) for lay in layers]
    i = int(np.argmax(totals))
    out[f"slowest_{label}"] = ids[i]
    out[f"slowest_{label}_s"] = round(totals[i], 6)
    return out
