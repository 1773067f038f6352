"""The package's public surface is the union of its modules' export lists,
and one helper forks its workers."""

import ast
from pathlib import Path

import selverify
from selverify import distributions, experiments, metrics, policy, population, streams

MODULES = (distributions, experiments, metrics, policy, population, streams)


def test_the_package_exports_every_module_name_once():
    names = selverify.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(
        *(module.__all__ for module in MODULES)
    )
    for name in names:
        assert hasattr(selverify, name), name
    # no star import shadows a name that an earlier module exports
    for module in MODULES:
        for name in module.__all__:
            assert getattr(selverify, name) is getattr(module, name), name
    assert "run_rep" in experiments.__all__


def _calls(name):
    """The (module file, top-level function) of each call, in the sources
    of the package, whose callee's source text is `name`."""
    found = []
    for path in sorted(Path(selverify.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == name:
                    found.append((path.name, getattr(top, "name", None)))
    return found


def test_one_helper_forks():
    assert _calls("os.fork") == [("experiments.py", "_fork")]
    assert set(_calls("_fork")) == {("experiments.py", "_in_order")}
