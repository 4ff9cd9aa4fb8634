"""The package reads its structure constants and matrices sparsely. Its
dense views, `Mat.data`, `LieAlgebra.brackets` and `Subspace.vectors`, are
kept for callers outside it, and only the functions pinned here read them."""
import ast
from fractions import Fraction
from pathlib import Path

import quadlie
from quadlie import GeneralCocycle, LieAlgebra, Mat, heisenberg

_SRC = Path(quadlie.__file__).resolve().parent
_DENSE = {"data", "brackets", "vectors"}
_READERS = {"Mat.__repr__", "Subspace.vectors"}
_DELETED = {"Mat": {"entry", "row", "col", "matvec"},
            "LieAlgebra": {"bracket_basis"},
            "GeneralCocycle": {"values", "value_pair"}}
# names that restated another function or had no caller: each operation
# keeps one entry point (contract, trivector_kernel, str, build_chain,
# validate_family)
_DELETED_METHODS = {"AltCoeffs": {"contraction_with", "kernel_subspace",
                                  "__bool__"},
                    "GeneralCocycle": {"is_zero"}}
_DELETED_FUNCTIONS = {"scalar_str", "coeffs_to_chain", "family_defects"}


class _Scan(ast.NodeVisitor):
    """The qualified name of each function that reads an attribute in
    _DENSE, the methods each class defines, and the module-level
    functions."""

    def __init__(self):
        self.scope, self.readers, self.methods = [], set(), {}
        self.functions = set()

    def visit_ClassDef(self, node):
        self.methods.setdefault(node.name, set()).update(
            n.name for n in node.body if isinstance(n, ast.FunctionDef))
        self.visit_FunctionDef(node)

    def visit_FunctionDef(self, node):
        if not self.scope and isinstance(node, ast.FunctionDef):
            self.functions.add(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Attribute(self, node):
        if node.attr in _DENSE and isinstance(node.ctx, ast.Load):
            self.readers.add(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def _scan():
    scan = _Scan()
    for path in sorted(_SRC.glob("*.py")):
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
    return scan


def test_scanner_names_nested_readers():
    scan = _Scan()
    scan.visit(ast.parse("class C:\n    def f(self):\n        return x.data\n"
                         "def g():\n    def h():\n        y.vectors()\n"
                         "def k():\n    z.data = 1\n"))
    assert scan.readers == {"C.f", "g.h"}
    assert scan.methods == {"C": {"f"}}
    assert scan.functions == {"g", "k"}


def test_only_the_pinned_functions_read_a_dense_view():
    assert _scan().readers == _READERS


def test_deleted_dense_accessors_stay_deleted():
    methods = _scan().methods
    for cls, names in _DELETED.items():
        assert not names & methods[cls], cls
    for cls, obj in (("Mat", Mat), ("LieAlgebra", LieAlgebra),
                     ("GeneralCocycle", GeneralCocycle)):
        assert not any(hasattr(obj, name) for name in _DELETED[cls])


def test_duplicate_entry_points_stay_deleted():
    scan = _scan()
    for cls, names in _DELETED_METHODS.items():
        assert not names & scan.methods[cls], cls
        assert not any(hasattr(getattr(quadlie, cls), n) for n in names)
    assert not _DELETED_FUNCTIONS & scan.functions
    assert not any(hasattr(quadlie, name) for name in _DELETED_FUNCTIONS)


def test_mat_data_is_built_on_each_read():
    m = Mat([[1, "1/2", 0], [0, 0, 3]])
    assert "_data" not in Mat.__slots__ and not hasattr(m, "_data")
    assert m.data == ((1, Fraction(1, 2), 0), (0, 0, 3))
    assert m.data is not m.data
    assert heisenberg().brackets == {(1, 2): (0, 0, 1)}
