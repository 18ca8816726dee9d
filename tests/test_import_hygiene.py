"""Every name a module of the package imports is used in that module, or is
a binding that the benchmark's tracer (``benchmarks/tracing.py``) wraps:
an import that nothing reads is either dead or kept for that tracer, and
the tracer's ``WRAPPED`` table is the one list of the second kind."""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "maternsmooth")
TRACING = os.path.join(ROOT, "benchmarks", "tracing.py")


def _wrapped():
    """The ``(module, attribute)`` pairs of ``WRAPPED``, read from the source
    of the tracer without running it."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("benchmarks/tracing.py defines no WRAPPED table")


def unused_imports(source):
    """The names that ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used_or_wrapped_by_the_tracer(module):
    with open(os.path.join(PACKAGE, f"{module}.py")) as fh:
        unused = unused_imports(fh.read())
    wrapped = {attr for owner, attr in _wrapped() if owner == f"maternsmooth.{module}"}
    assert unused - wrapped == set()


def test_an_unused_import_is_caught():
    source = "from .designs import check_schedule, is_integer\n\nis_integer(1)\n"
    assert unused_imports(source) == {"check_schedule"}
