"""Every dense reference of the suite is defined once, in reference.py."""
import ast
import re
from pathlib import Path

_REFERENCE = re.compile(r"_(dense|ref|loop|old|pair_law)(_|$)")


def _reference_names(source):
    """The reference-named functions defined anywhere in source, nested
    ones and methods included."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _REFERENCE.match(node.name)]


def test_scanner_finds_nested_definitions():
    source = ("def f():\n    def _dense_x():\n        pass\n"
              "class C:\n    def _old_y(self):\n        pass\n"
              "def _densely():\n    pass\n"
              "def _ref():\n    pass\n")
    assert sorted(_reference_names(source)) == ["_dense_x", "_old_y", "_ref"]


def test_reference_helpers_are_defined_once_in_reference_module():
    tests = Path(__file__).resolve().parent
    found = {path.name: _reference_names(path.read_text(encoding="utf-8"))
             for path in sorted(tests.glob("*.py"))}
    assert {name: defs for name, defs in found.items()
            if defs and name != "reference.py"} == {}
    names = found["reference.py"]
    assert len(names) == len(set(names)) > 40


def test_replaced_paths_are_kept_as_references():
    # the paths that rref's early stop, the ad-index centre rows, the
    # signed ad index, the once-per-pair skew check, the sparse file
    # readers, the fraction-free sums, the one-build roads check, the
    # batched brackets, the closed-2-form derivation law, the integer
    # elimination core and the sparse pullback of the GL action replaced,
    # and the dense solvers they are checked against
    source = (Path(__file__).resolve().parent / "reference.py").read_text(
        encoding="utf-8")
    assert {"_ref_centre_rows", "_ref_centre_by_rows",
            "_ref_inner_preimage_by_rows", "_ref_family_defects_by_rows",
            "_dense_solve", "_dense_intersect", "_dense_inverse",
            "_ref_algebra_from_obj", "_ref_mat_in",
            "_ref_general_cocycle_from_obj", "_ref_chain_from_obj",
            "_ref_family_from_obj", "_old_vecmat", "_old_sparse_mul",
            "_old_ad_index", "_old_bracket", "_old_jacobi_defect",
            "_old_lower_central_series", "_old_derivation_map",
            "_old_derivation_defect",
            "_old_derivation_space", "_old_random_skew_derivation",
            "_old_chain_dcoeffs", "_old_is_isometry", "_ref_all_roads",
            "_ref_coeffs_to_family", "_old_decompose_as_tstar",
            "_loop_is_isometry", "_pair_law_derivation_space", "_old_rref",
            "_old_kernel_rows", "_old_kernel", "_old_sparse_solve",
            "_old_sparse_inverse", "_old_fsum", "_dense_call",
            "_dense_gl_act", "_dense_isometry_from_gl"} <= set(
                _reference_names(source))
