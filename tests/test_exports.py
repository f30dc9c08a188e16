"""The package's export list against its submodules' export lists."""

import confunc
from confunc import bounds, errors, numerics, slepian, states

SUBMODULES = (errors, numerics, slepian, bounds, states)


def test_package_exports_exactly_the_submodule_exports():
    # a name deleted from a submodule must leave the package list too,
    # and a name dropped from the package list must leave the submodule
    expected = set().union(*(m.__all__ for m in SUBMODULES)) | {"__version__"}
    assert len(confunc.__all__) == len(set(confunc.__all__))
    assert set(confunc.__all__) == expected


def test_every_exported_name_resolves():
    for module in (confunc, *SUBMODULES):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
