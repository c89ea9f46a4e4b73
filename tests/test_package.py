"""The package's public names, the one owner of the (u, v) layout and the
one owner of the multigrid hierarchy."""

from pathlib import Path

import nematicfem

# hand-written spellings of the blocked (u, v) coefficient layout
LAYOUT_IDIOMS = ("reshape(2", "+ space.nscalar", "comp * ns",
                 "[:, 0], vals[:, 1]")
# the hierarchy's growth rule and its LU factors
HIERARCHY_NAMES = ("HIERARCHY_GROWTH", ".lu", "splu")


def test_all_names_are_attributes():
    assert [n for n in nematicfem.__all__ if not hasattr(nematicfem, n)] == []


def test_star_import():
    namespace = {}
    exec("from nematicfem import *", namespace)
    assert set(nematicfem.__all__) <= set(namespace)


def test_layout_idioms_only_in_fespace():
    """Only ``fespace`` spells out the coefficient layout; every other
    module goes through its gather, scatter, join and componentwise
    functions."""
    src = Path(__file__).resolve().parent.parent / "src" / "nematicfem"
    modules = sorted(src.glob("*.py"))
    assert {"forms.py", "solver.py", "fespace.py"} <= {m.name for m in modules}
    found = [(m.name, idiom) for m in modules if m.name != "fespace.py"
             for idiom in LAYOUT_IDIOMS if idiom in m.read_text()]
    assert found == []


def test_hierarchy_only_in_solver():
    """Only ``solver`` knows what the multigrid hierarchy keeps: its growth
    rule and its factors; `adapt.solve_levels` only hands it on."""
    src = Path(__file__).resolve().parent.parent / "src" / "nematicfem"
    modules = sorted(src.glob("*.py"))
    assert {"adapt.py", "solver.py"} <= {m.name for m in modules}
    found = [(m.name, name) for m in modules if m.name != "solver.py"
             for name in HIERARCHY_NAMES if name in m.read_text()]
    assert found == []
