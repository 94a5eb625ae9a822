"""Every ``EngineConfig`` field must be read somewhere in the package: a
knob that no code reads changes nothing and only misleads its user. No
operator or query entry takes a bucket count, and the query registry
imports every pipeline module."""

import ast
import dataclasses
import inspect
import pathlib
import sys

import pytest

import radiant_portal_pipeline_ray
from radiant_portal_pipeline_ray.config import EngineConfig

PKG = pathlib.Path(radiant_portal_pipeline_ray.__file__).parent


def _attribute_reads() -> set[str]:
    names: set[str] = set()
    for path in PKG.rglob("*.py"):
        if path.name == "config.py" and path.parent == PKG:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_config_field_is_read():
    reads = _attribute_reads()
    unread = [f.name for f in dataclasses.fields(EngineConfig) if f.name not in reads]
    assert not unread, f"EngineConfig fields no code reads: {unread}"


#: parameter names that would set a keyed exchange's bucket count
BUCKET_PARAMS = {"n_buckets", "n_partitions", "num_buckets"}


def _operators() -> dict:
    from radiant_portal_pipeline_ray.pipelines import changefeed
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
    from radiant_portal_pipeline_ray.stages import aggregates, joins, qa, taskshuffle

    return {
        "exchange_group": taskshuffle.exchange_group,
        "exchange_join": taskshuffle.exchange_join,
        "hash_partitioned_join": joins.hash_partitioned_join,
        "partial_final_groupby": aggregates.partial_final_groupby,
        "window": aggregates.window,
        "topk_per_key": aggregates.topk_per_key,
        "count_distinct_groupby": aggregates.count_distinct_groupby,
        "qa.cross_exclusive": qa.cross_exclusive,
        "changefeed.read_changes": changefeed.read_changes,
        "CdcEngine.read_changes": CdcEngine.read_changes,
    }


def test_no_operator_or_entry_takes_a_bucket_count():
    """A keyed exchange sizes its bucket count from the bytes it moves
    (``taskshuffle.bucket_count``); a parameter that set it would be a
    knob that changes nothing below hundreds of MB per exchange."""
    import __ray_entry__

    fns = dict(_operators())
    fns.update({name: fn for name, (fn, _sql) in __ray_entry__._registry().items()})
    takes = {
        name: sorted(BUCKET_PARAMS & set(inspect.signature(fn).parameters))
        for name, fn in fns.items()
    }
    assert not {k: v for k, v in takes.items() if v}


def test_registry_raises_when_a_pipeline_module_cannot_import(monkeypatch):
    """A pipeline module that fails to import must fail the registry, not
    silently drop its entries."""
    import __ray_entry__
    from radiant_portal_pipeline_ray import pipelines

    __ray_entry__._registry()  # every module imported once
    monkeypatch.delattr(pipelines, "sketches")
    monkeypatch.setitem(sys.modules, "radiant_portal_pipeline_ray.pipelines.sketches", None)
    with pytest.raises(ImportError):
        __ray_entry__._registry()
