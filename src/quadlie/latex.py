"""Bracket tables: the one cell formatter, in text and LaTeX styles.

A cell is "[e1,e2] = e3*" in text style and "[e_1,e_2] & = e^*_3" in LaTeX
style. With a split at n, labels above n render as starred duals, matching
the hyperbolic basis e_1..e_n, e_1*..e_n*. The LaTeX table chains cells
with ",\\qquad & " in a three-column alignat layout; rows close with
", \\\\" and the final cell with ".".
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import LieAlgebra


def _label(k: int, split: int | None, tex: bool) -> str:
    star = split is not None and k > split
    s = k - split if star else k
    if not tex:
        return f"e{s}*" if star else f"e{s}"
    sub = s if s < 10 else f"{{{s}}}"
    return f"e^*_{sub}" if star else f"e_{sub}"


def _coef(c: Fraction, tex: bool) -> str:
    """Multiplier text for c > 0: '' for 1, '2*' or '2/3*' in text style,
    '2' or '\\tfrac{2}{3}' in LaTeX style."""
    if c == 1:
        return ""
    if not tex:
        return f"{c}*"
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"


def bracket_cells(alg: LieAlgebra, split: int | None = None,
                  tex: bool = False) -> list[str]:
    """One cell per nonzero basis bracket [e_i,e_j], i < j, in key order."""
    eq = " & = " if tex else " = "
    cells = []
    for (i, j), v in sorted(alg.brackets.items()):
        terms = []
        for k, c in enumerate(v, start=1):
            if c:
                sign = (" - " if c < 0 else " + ") if terms else \
                    ("-" if c < 0 else "")
                terms.append(sign + _coef(abs(c), tex) + _label(k, split, tex))
        cells.append(f"[{_label(i, split, tex)},{_label(j, split, tex)}]"
                     f"{eq}{''.join(terms)}")
    return cells


def latex_table(alg: LieAlgebra, split: int | None = None,
                columns: int = 3) -> str:
    """The alignat* multiplication table of all nonzero basis brackets."""
    cells = bracket_cells(alg, split, tex=True)
    if not cells:
        return "% empty multiplication table\n"
    lines = [f"\\begin{{alignat*}}{{{columns}}}"]
    for start in range(0, len(cells), columns):
        row = cells[start:start + columns]
        last_row = start + columns >= len(cells)
        line = ",\\qquad & ".join(row)
        lines.append(line + ("." if last_row else ", \\\\"))
    lines.append("\\end{alignat*}")
    return "\n".join(lines) + "\n"
