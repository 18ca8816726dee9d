"""Every name a module of the package imports is used in that module, or is
a binding that the benchmark's tracer (``benchmarks/tracing.py``) wraps:
an import that nothing reads is either dead or kept for that tracer, and
the tracer's ``WRAPPED`` table is the one list of the second kind.  Every
name a module exports, in its ``__all__`` or through the package's
``__init__.py``, is bound in that module.  Every entry of the ``KEEP`` table
of ``tools/unreached.py`` names a function the package defines.  The rules
on values (:data:`VALUE_RULES`) are defined in ``errors.py`` alone, and every
other module that uses one imports it from there; no other module reads an
array's ``dtype.kind``, the test by which the array rule refuses bools,
text and objects, and no other module converts input by a call with
``dtype=float``."""

import ast
import importlib
import importlib.util
import os
import types

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
    source = "from .errors import DomainError, is_integer\n\nis_integer(1)\n"
    assert unused_imports(source) == {"DomainError"}


VALUE_RULES = {"is_real", "is_integer", "check_real", "require_positive", "check_integer",
               "check_array"}


def value_rule_origins(source):
    """``{name: origin}`` of each value rule that ``source`` binds: ``"def"``
    where it defines or assigns it, else the module it imports it from
    (``".errors"`` for a relative import of ``errors``)."""
    origins = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            origins[node.name] = "def"
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            origins[node.id] = "def"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                origins[alias.asname or alias.name] = "." * node.level + (node.module or "")
    return {name: origin for name, origin in origins.items() if name in VALUE_RULES}


@pytest.mark.parametrize("module", MODULES)
def test_value_rules_are_defined_in_errors_alone(module):
    with open(os.path.join(PACKAGE, f"{module}.py")) as fh:
        origins = value_rule_origins(fh.read())
    if module == "errors":
        assert origins == dict.fromkeys(VALUE_RULES, "def")
    else:
        assert set(origins.values()) <= {".errors"}, origins


def test_a_second_value_rule_is_caught():
    source = ("from .errors import check_integer\nfrom .designs import is_integer\n\n"
              "def check_real(name, value):\n    pass\n")
    assert value_rule_origins(source) == {"check_integer": ".errors",
                                          "is_integer": ".designs", "check_real": "def"}


def reads_dtype_kind(source):
    """Whether ``source`` reads ``<array>.dtype.kind``."""
    return any(isinstance(node, ast.Attribute) and node.attr == "kind"
               and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
               for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("module", MODULES)
def test_the_array_rule_is_written_in_errors_alone(module):
    with open(os.path.join(PACKAGE, f"{module}.py")) as fh:
        assert reads_dtype_kind(fh.read()) == (module == "errors")


def test_a_second_array_rule_is_caught():
    source = ("def _validate_positive(name, value):\n"
              "    arr = np.asarray(value)\n"
              "    if arr.dtype.kind not in 'iuf':\n"
              "        raise DomainError(name)\n")
    assert reads_dtype_kind(source)
    assert not reads_dtype_kind("arr = np.asarray(value, dtype=float)\n")


def converts_to_float(source):
    """Whether ``source`` calls anything with the keyword ``dtype=float``."""
    return any(isinstance(node, ast.keyword) and node.arg == "dtype"
               and isinstance(node.value, ast.Name) and node.value.id == "float"
               for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("module", MODULES)
def test_input_is_converted_in_errors_alone(module):
    with open(os.path.join(PACKAGE, f"{module}.py")) as fh:
        assert not converts_to_float(fh.read()) or module == "errors"


def test_a_second_conversion_is_caught():
    assert converts_to_float("def _as_query(x):\n    return np.asarray(x, dtype=float)\n")
    assert converts_to_float("pts = np.array(points, copy=True, dtype=float)\n")
    assert not converts_to_float("arr = check_array('points', points, None)\n"
                                 "out = np.empty(3, dtype=np.int64)\n")


def unresolved(module, names):
    """The entries of ``names`` that are not attributes of ``module``."""
    return [name for name in names if not hasattr(module, name)]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    owner = importlib.import_module(f"maternsmooth.{module}")
    assert unresolved(owner, getattr(owner, "__all__", ())) == []


def test_every_name_the_package_imports_resolves():
    # Read from the source, so that a stale name is reported by name rather
    # than as a failed import of the package.
    with open(os.path.join(PACKAGE, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        owner = importlib.import_module(f"maternsmooth.{node.module}")
        assert unresolved(owner, [alias.name for alias in node.names]) == [], node.module


def test_a_stale_export_is_caught():
    module = types.ModuleType("stale")
    module.kept = None
    assert unresolved(module, ["kept", "deleted"]) == ["deleted"]


def _unreached_tool():
    """``tools/unreached.py`` as a module, loaded without running any
    configuration."""
    path = os.path.join(ROOT, "tools", "unreached.py")
    spec = importlib.util.spec_from_file_location("unreached", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_keep_entry_names_a_function():
    assert _unreached_tool().missing() == []


def test_a_stale_keep_entry_is_caught(monkeypatch):
    tool = _unreached_tool()
    monkeypatch.setitem(tool.KEEP, "kernels.Deleted.method", "a deleted method")
    assert tool.missing() == ["kernels.Deleted.method"]
