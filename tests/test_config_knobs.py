"""Every ``EngineConfig`` field must be read somewhere in the package: a
knob that no code reads changes nothing and only misleads its user."""

import ast
import dataclasses
import pathlib

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
