"""One commit protocol: the lake's. Versioned state publishes through
``Lake.commit_next``'s put-if-absent manifest, never by renaming a file
into place. A rename commit is POSIX-only, and two writers can both make
one, so a second commit protocol would show up as an ``os.replace`` or
``os.rename`` call. The walk reads the package's AST, as
``tests/test_reachable_modules.py`` does."""

import ast
import pathlib

import radiant_portal_pipeline_ray

PKG = pathlib.Path(radiant_portal_pipeline_ray.__file__).parent

RENAMES = {"replace", "rename", "renames"}

#: ``<module path>:<function>`` allowed to rename a file, each for a reason
ALLOWED = {
    "state/manifest.py:Lake._write_tags": (
        "tags are operator refs, not versions: last writer wins under the "
        "tag lock, and the rename only keeps a reader off a half-written file"
    ),
    "pipelines/sourceload.py:_export": (
        "a source export into a local directory, renamed whole so no "
        "reader sees a partial file; not lake state"
    ),
    "sources/loaders.py:idempotent_load": (
        "a source load's staging-to-final rename with its _SUCCESS marker; "
        "not lake state"
    ),
}


def _rename_sites() -> set[str]:
    sites = set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    walk(child, scope + [child.name])
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in RENAMES
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "os"
                ):
                    sites.add(f"{rel}:{'.'.join(scope) or '<module>'}")
                walk(child, scope)

        walk(ast.parse(path.read_text(), str(path)), [])
    return sites


def test_no_rename_commit_outside_the_allowlist():
    extra = _rename_sites() - set(ALLOWED)
    assert not extra, f"os.replace/os.rename outside the lake's commit: {sorted(extra)}"


def test_allowlist_names_only_rename_sites():
    stale = set(ALLOWED) - _rename_sites()
    assert not stale, f"allowlist entries that rename nothing: {sorted(stale)}"
