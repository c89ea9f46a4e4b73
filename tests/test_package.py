"""The package's public names, the one owner of the (u, v) layout, the
one caller of problem data, the one owner of the multigrid hierarchy, and
the modules' private names."""

import ast
from pathlib import Path

import nematicfem

# hand-written spellings of the blocked (u, v) coefficient layout
LAYOUT_IDIOMS = ("reshape(2", "+ space.nscalar", "comp * ns",
                 "[:, 0], vals[:, 1]")
# a data function called on flattened points
DATA_IDIOM = "reshape(-1, 2))"
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


def test_data_evaluated_only_in_fespace():
    """Only ``fespace.evaluate`` hands points to g, f, the exact solution
    and its gradient; every other module passes it the points."""
    src = Path(__file__).resolve().parent.parent / "src" / "nematicfem"
    modules = sorted(src.glob("*.py"))
    assert {"forms.py", "estimator.py", "fespace.py"} <= {m.name
                                                         for m in modules}
    found = [m.name for m in modules if m.name != "fespace.py"
             and DATA_IDIOM in m.read_text()]
    assert found == []


def test_no_private_name_imported_across_modules():
    """No package module imports another module's ``_``-prefixed name
    (dunder names such as ``__version__`` are public)."""
    src = Path(__file__).resolve().parent.parent / "src" / "nematicfem"
    found = [(m.name, node.module, alias.name)
             for m in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(m.read_text()))
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names if alias.name.startswith("_")
             and not alias.name.endswith("__")]
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
