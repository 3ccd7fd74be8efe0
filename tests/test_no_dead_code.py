"""Every public module-level function and class in the package has a caller.

A caller is a name or attribute reference in `src/`, `scripts/` or `benchmark/`; the
package `__init__` re-exports do not count, and neither do the tests. Code that nothing
calls is wired in or deleted, unless it is listed here with its reason.
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "arrkit")

ALLOWED = {
    ("nn", "gradient_check"): "the finite-difference oracle of the gradient gate",
    ("stats", "kde_mass"): "the oracle of the KDE tests: the density's integral over its grid",
    ("market_data", "write_tick_csv"): "the benchmark's tracer patches it by name",
}


def _python_files(root):
    for base, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d not in ("__pycache__", "_work")]
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _parse(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _public_definitions():
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name


def _referenced_names():
    names = set()
    for top in ("src", "scripts", "benchmark"):
        for path in _python_files(os.path.join(REPO, top)):
            if os.path.basename(path) == "__init__.py":
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller():
    used = _referenced_names()
    dead = sorted(
        f"{module}.{name}" for module, name in _public_definitions()
        if name not in used and (module, name) not in ALLOWED
    )
    assert dead == [], f"public code that no stage, script or benchmark calls: {dead}"


def test_every_allowlist_entry_is_still_needed():
    used = _referenced_names()
    defined = set(_public_definitions())
    for module, name in ALLOWED:
        assert (module, name) in defined, f"{module}.{name} no longer exists"
        assert name not in used, f"{module}.{name} has a caller now; drop it from ALLOWED"
