"""Every public module-level function and class in the package has a caller, and so
does every public method and property of those classes.

A caller is a name or attribute reference in `src/`, `scripts/` or `benchmark/`; the
package `__init__` re-exports do not count, and neither do the tests. Code that nothing
calls is wired in or deleted, unless it is listed here with its reason.

The match is by name alone, so a method counts as called when any attribute of that name
is: a method named `encode` would pass today, because `config.py` calls `str.encode`.
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


def _public(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def _public_definitions():
    """(module, qualified name, called name) of each public function, class, method and
    property; a method's qualified name is Class.method."""
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _public(_parse(path).body):
            yield module, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in _public(node.body):
                    yield module, f"{node.name}.{member.name}", member.name


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
        f"{module}.{qualified}" for module, qualified, name in _public_definitions()
        if name not in used and (module, qualified) not in ALLOWED
    )
    assert dead == [], f"public code that no stage, script or benchmark calls: {dead}"


def test_public_methods_are_covered():
    # a method no caller names is found, as AutoencoderModel.decode would have been
    qualified = {(module, q) for module, q, _ in _public_definitions()}
    assert ("autoencoder", "AutoencoderModel.features") in qualified
    assert ("nn", "DenseNet.n_layers") in qualified  # a property
    assert ("autoencoder", "AutoencoderModel.__post_init__") not in qualified


def test_every_allowlist_entry_is_still_needed():
    used = _referenced_names()
    defined = {(module, qualified): name for module, qualified, name in _public_definitions()}
    for module, qualified in ALLOWED:
        assert (module, qualified) in defined, f"{module}.{qualified} no longer exists"
        assert defined[module, qualified] not in used, (
            f"{module}.{qualified} has a caller now; drop it from ALLOWED"
        )
