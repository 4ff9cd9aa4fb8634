"""Acceptance gate: the eight release criteria, one pass/fail line each.

Every check underneath runs in exact rational arithmetic; there are no
tolerances anywhere. Run with -s to see the lines for passing criteria.
"""
from quadlie.acceptance import (ALL_CRITERIA, criterion_1, criterion_2,
                                criterion_3, criterion_4, criterion_5,
                                criterion_6, criterion_7, criterion_8)

_NAMES = {fn: name for name, fn in ALL_CRITERIA}


def _check(num, fn):
    ok, detail = fn()
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} " \
           f"({_NAMES[fn]}): {detail}"
    print(line)
    assert ok, line


def test_criterion_1_catalog_soundness_under_ten_seconds():
    # all 22 entries: Lie, invariant, nondegenerate, 2-step, reduced,
    # expected dim and type, trivector rank n; wall clock under 10 s
    _check(1, criterion_1)


def test_criterion_2_census_counts():
    # {6: 1, 8: 0, 10: 1, 12: 2, 14: 5, 16: 13}, 22 in total
    _check(2, criterion_2)


def test_criterion_3_three_routes_bit_identical():
    # catalog entries plus 200 seeded cocycles, n in 3..7
    _check(3, criterion_3)


def test_criterion_4_reducedness_flags_agree():
    # 500 seeded cocycles: reduced / zero radical / full stacked rank /
    # full trivector rank are one and the same flag
    _check(4, criterion_4)


def test_criterion_5_two_step_and_centre_formulas():
    # 100 seeded 1-d extensions: criterion iff nilindex 2, and the
    # centre formula matches the computed centre
    _check(5, criterion_5)


def test_criterion_6_dual_extension_round_trip():
    # decompose each catalog entry and rebuild; isometry checked on
    # every basis pair
    _check(6, criterion_6)


def test_criterion_7_worked_examples():
    # determinant cocycle (6-dim, 3-step), two-block extensions
    # (n-step for n=2..5), and the 18-dim parametric entry
    _check(7, criterion_7)


def test_criterion_8_parameter_count():
    # C(n,3) equals 2n(2n-2)(2n-4)/48 for n=3..7
    _check(8, criterion_8)


def test_criterion_6_verifies_each_map_once(monkeypatch):
    from quadlie import acceptance, forms, tstar
    from quadlie.errors import ValidationError
    calls = []
    real = forms.is_isometry

    def counting(q1, q2, m):
        calls.append(m)
        return real(q1, q2, m)

    monkeypatch.setattr(tstar, "is_isometry", counting)
    assert criterion_6()[0]
    assert len(calls) == 22

    def failing(q, ideal):
        raise ValidationError("recovered map failed verification: bracket "
                              "not preserved at (1,2)")

    monkeypatch.setattr(acceptance, "decompose_as_tstar", failing)
    assert criterion_6() == (False, "L3,1: recovered map failed "
                                    "verification: bracket not preserved "
                                    "at (1,2)")


def test_catalog_entry_checks_its_form_once(monkeypatch):
    from quadlie import CATALOG, acceptance, forms
    calls = []
    for mod in (acceptance, forms):
        for name in ("invariance_defect", "rank"):
            def counting(*args, _real=getattr(mod, name), _name=name):
                calls.append((_name, args[-1]))
                return _real(*args)
            monkeypatch.setattr(mod, name, counting)
    for entry in CATALOG:
        calls.clear()
        assert acceptance.verify_catalog_entry(entry) == []
        form = forms.hyperbolic_form(entry.n)
        assert [name for name, m in calls if m == form] == \
            ["invariance_defect", "rank"]
