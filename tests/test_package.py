import importlib

import pytest

import ultrasph


def test_every_exported_name_resolves():
    assert [name for name in ultrasph.__all__ if not hasattr(ultrasph, name)] == []


@pytest.mark.parametrize("module", ["geometry", "gegenbauer", "harmonics", "quadrature", "solver"])
def test_module_exports_are_package_exports(module):
    exported = importlib.import_module(f"ultrasph.{module}").__all__
    assert sorted(set(exported) - set(ultrasph.__all__)) == []
