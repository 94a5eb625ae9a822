"""Every package module must be reachable from a non-test entry point: a
module only tests import is code the engine no longer needs, and it keeps
costing reading, review and upkeep. The walk follows every ``import`` in a
module's AST, imports inside functions included."""

import ast
import pathlib

import radiant_portal_pipeline_ray

PKG = pathlib.Path(radiant_portal_pipeline_ray.__file__).parent
ROOT = PKG.parent

ENTRY_POINTS = [
    ROOT / "__ray_entry__.py",
    ROOT / "bench.py",
    PKG / "__main__.py",
    *sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
    *sorted((ROOT / "tools").glob("*.py")),
]

#: modules kept without a non-test importer, each for a stated reason
ALLOWED_UNREACHED = {
    f"{PKG.name}.steps": "the extension surface user pipelines import",
    f"{PKG.name}.stages.bmpcodec": "the image-codec override seam, kept as its worked example",
}


def _module_file(name: str) -> pathlib.Path | None:
    if name.split(".")[0] != PKG.name:
        return None
    path = ROOT.joinpath(*name.split("."))
    for cand in (path / "__init__.py", path.with_suffix(".py")):
        if cand.is_file():
            return cand
    return None


def _imported_names(path: pathlib.Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def _reached_modules() -> set[str]:
    reached = {f"{PKG.name}.__main__"}
    todo = list(ENTRY_POINTS)
    while todo:
        for name in _imported_names(todo.pop()):
            parts = name.split(".")
            for i in range(1, len(parts) + 1):
                mod = ".".join(parts[:i])
                f = _module_file(mod)
                if f is not None and mod not in reached:
                    reached.add(mod)
                    todo.append(f)
    return reached


def _package_modules() -> set[str]:
    mods = set()
    for path in PKG.rglob("*.py"):
        rel = path.relative_to(ROOT).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        mods.add(".".join(parts))
    return mods


def test_every_package_module_is_reached_from_an_entry_point():
    assert all(p.is_file() for p in ENTRY_POINTS)
    unreached = _package_modules() - _reached_modules() - set(ALLOWED_UNREACHED)
    assert not unreached, f"package modules only tests reach: {sorted(unreached)}"


def test_allowlist_names_only_unreached_modules():
    # an allowlisted module that gains an importer no longer needs its entry
    stale = set(ALLOWED_UNREACHED) & _reached_modules()
    assert not stale, f"allowlisted modules now reached: {sorted(stale)}"
    assert set(ALLOWED_UNREACHED) <= _package_modules()
