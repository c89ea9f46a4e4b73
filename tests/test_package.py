"""The package's public names."""

import nematicfem


def test_all_names_are_attributes():
    assert [n for n in nematicfem.__all__ if not hasattr(nematicfem, n)] == []


def test_star_import():
    namespace = {}
    exec("from nematicfem import *", namespace)
    assert set(nematicfem.__all__) <= set(namespace)
