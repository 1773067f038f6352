"""The package's public surface is the union of its modules' export lists."""

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
