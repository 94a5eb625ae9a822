"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself; nothing here (or in the library)
initialises or shuts down Ray.

- ``entry()`` — flagship CDC replay over /root/testdata/sf0.001: derive a
  deterministic webtext changelog from the documents table, run the full
  engine (normalize → partition route → LWW merge → exactly-once commit),
  return the committed snapshot Dataset.
- ``queries()`` — one callable per implemented operator (SURVEY.md §2 +
  training-data ops); each takes ``sf_dir`` and returns a Dataset. A
  registry entry may return a ``pa.Table`` (its work ran on the driver, see
  ``taskshuffle._DRIVER_LOCAL_BYTES``); ``queries()`` wraps that table once
  (``taskshuffle.as_dataset``), the one ``Dataset`` the call builds.
- ``oracle_sql()`` — matching DuckDB SQL with identical column names.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def entry() -> Any:
    from radiant_portal_pipeline_ray.pipelines.flagship import run_flagship

    return run_flagship("/root/testdata/sf0.001")


def _registry() -> dict[str, tuple]:
    from radiant_portal_pipeline_ray.pipelines import (
        changefeed,
        dedup,
        flagship,
        incremental_dedup,
        multimodal_q,
        relational,
        similarity,
        sketches,
        sourceload,
        textops,
    )

    reg: dict[str, tuple] = {}
    for mod in (
        relational, textops, dedup, similarity, sourceload,
        multimodal_q, flagship, changefeed, sketches, incremental_dedup,
    ):
        reg.update(mod.QUERIES)
    return reg


def queries() -> dict[str, Callable[[str], Any]]:
    from radiant_portal_pipeline_ray.stages.taskshuffle import as_dataset

    def wrap(fn):
        return lambda *a, **kw: as_dataset(fn(*a, **kw))

    return {name: wrap(fn) for name, (fn, _sql) in _registry().items()}


def oracle_sql() -> dict[str, str]:
    return {
        name: sql for name, (_fn, sql) in _registry().items() if sql is not None
    }
