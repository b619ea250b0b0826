"""Acceptance suite: one test per verification criterion.

Each test delegates to :mod:`liedouble.acceptance`, which freezes the
expected values, and asserts the criterion's overall flag.  The per-check
detail lines are printed so failures are self-explanatory.

Criterion 8 is expected to fail: one of its checks asserts a published
constant that the stated bracket table does not produce (the table yields
-1 times the basis vector where -2 times it is asserted).  The check is
kept as stated on purpose and marked as a strict expected failure; see
README.md, section "Verification suite".
"""

import itertools
import random

import pytest

from liedouble import LinearMap, acceptance, get


def _report(result):
    print(f"criterion {result.number}: {result.title}")
    for line in result.lines:
        print(f"  {line}")
    verdict = "pass" if result.ok else "FAIL"
    print(f"criterion {result.number}: {verdict}")


def test_criterion_01_table_of_verdicts():
    result = acceptance.criterion_1()
    _report(result)
    assert result.ok


def test_criterion_02_symbolic_inner_operator_is_classical():
    result = acceptance.criterion_2()
    _report(result)
    assert result.ok


def test_criterion_03_modified_equation_unique_scalar():
    result = acceptance.criterion_3()
    _report(result)
    assert result.ok


def test_criterion_04_doubles_from_inner_operators():
    result = acceptance.criterion_4()
    _report(result)
    assert result.ok


def test_criterion_05_parametric_family_conditional_verdicts():
    result = acceptance.criterion_5()
    _report(result)
    assert result.ok


def test_criterion_06_generalized_derivation_dimensions():
    result = acceptance.criterion_6()
    _report(result)
    assert result.ok


def test_criterion_07_eight_dimensional_nilpotent_example():
    result = acceptance.criterion_7()
    _report(result)
    assert result.ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "one check asserts a published constant (-2 times a basis vector) "
        "that the stated bracket table does not produce; the computed value "
        "is -1 times that basis vector.  The check is implemented exactly as "
        "stated and reported as a failure by design.  See README.md."
    ),
)
def test_criterion_08_fixed_diagonal_map_values():
    result = acceptance.criterion_8()
    _report(result)
    assert result.ok


def test_criterion_09_filiform_family_all_derivations():
    result = acceptance.criterion_9()
    _report(result)
    assert result.ok


def test_criterion_10_simple_algebras_and_nilpotent_search():
    result = acceptance.criterion_10()
    _report(result)
    assert result.ok


def test_criterion_11_randomized_property_audits():
    result = acceptance.criterion_11()
    _report(result)
    assert result.ok


def test_criterion_12_serialization_round_trip():
    result = acceptance.criterion_12()
    _report(result)
    assert result.ok


# -- the violation paths of criterion 11 ------------------------------------------
#
# Each test below makes a verdict that a suite reads disagree with the rest,
# and requires the suite's FAIL line.


class _Verdict:
    """A report with only the flag the suites read."""

    def __init__(self, holds):
        self.holds = holds


def _run_suite(suite, *args):
    result = acceptance.CriterionResult(11, "randomized property suites")
    suite(result, *args)
    return result


def _suite_args(*, rng=True):
    pool = acceptance._plain_pool()
    return (random.Random(acceptance.SEED), pool) if rng else (pool,)


def test_a_nonzero_obstruction_of_a_solvable_equation_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "is_classical_rmatrix", lambda g, op: _Verdict(False))
    result = _run_suite(acceptance._mybe_suite, *_suite_args())
    assert result.ok is False
    assert result.lines == ["FAIL: r2: solvable equation but nonzero obstruction"]


def test_a_cube_derivation_that_disagrees_with_identity_4_fails(monkeypatch):
    real = acceptance.ad_cube_is_derivation
    monkeypatch.setattr(acceptance, "ad_cube_is_derivation", lambda g, z: not real(g, z))
    result = _run_suite(acceptance._extremal_and_cube_suite, *_suite_args())
    assert result.ok is False
    assert result.lines == ["FAIL: r2: cube-derivation and identity 4 disagree at z = -2*e2"]


def test_an_extremal_element_without_identity_4_fails(monkeypatch):
    # the two verdicts agree, so only the extremal check can fail
    monkeypatch.setattr(acceptance, "ad_cube_is_derivation", lambda g, z: False)
    monkeypatch.setattr(acceptance, "check_quantified", lambda g, code, q: _Verdict(False))
    result = _run_suite(acceptance._extremal_and_cube_suite, *_suite_args())
    assert result.ok is False
    assert result.lines == ["FAIL: r2: extremal z = -2*e2 without vanishing cube"]


def test_a_witness_derivation_without_identity_2_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "check_quantified", lambda g, code, q: _Verdict(False))
    result = _run_suite(acceptance._witness_suite, *_suite_args(rng=False))
    assert result.ok is False
    assert result.lines == ["FAIL: n3: witness derivation invalid"]


def _double_bracket_jacobiator(g, code, d, x, y, w):
    bd = acceptance._double_bracket(g, d)
    return bd(bd(x, y), w) + bd(bd(y, w), x) + bd(bd(w, x), y)


def _fixed_samples(monkeypatch, name, values, rows):
    """Make every transfer sample the operator ``rows`` at e1, e2, e3 of one
    algebra."""
    g = get(name, values)
    basis = itertools.cycle([g.basis_element(i) for i in range(3)])
    monkeypatch.setattr(acceptance, "_random_derivation", lambda rng, h: LinearMap(rows))
    monkeypatch.setattr(acceptance, "_random_element", lambda rng, h: next(basis))
    return [(name, g)]


def test_a_double_bracket_jacobiator_unlike_identity_1_fails(monkeypatch):
    # the first check: the value identity 1 reports
    real = acceptance.eval_identity
    monkeypatch.setattr(acceptance, "eval_identity",
                        lambda g, *slots: real(g, *slots) + g.basis_element(0))
    result = _run_suite(acceptance._transfer_suite, *_suite_args())
    assert result.ok is False
    assert result.lines == ["FAIL: double-bracket transfer: 200 samples, 200 violations"]


def test_a_double_bracket_jacobiator_unlike_its_collapsed_form_fails(monkeypatch):
    # the second check alone: with identity 1 read as the double bracket's
    # own Jacobiator, this operator, not a derivation, passes the first and
    # the third checks and fails the collapsed right side
    monkeypatch.setattr(acceptance, "eval_identity", _double_bracket_jacobiator)
    pool = _fixed_samples(monkeypatch, "r3lambda", {"lam": 2},
                          [[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    result = _run_suite(acceptance._transfer_suite, random.Random(acceptance.SEED), pool)
    assert result.ok is False
    assert result.lines == ["FAIL: double-bracket transfer: 200 samples, 200 violations"]


def test_a_double_bracket_jacobiator_unlike_its_expansion_fails(monkeypatch):
    # the third check alone: a projection of sl2, not a derivation, passes
    # the first two checks and fails the six-term expansion
    pool = _fixed_samples(monkeypatch, "sl2", None, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    result = _run_suite(acceptance._transfer_suite, random.Random(acceptance.SEED), pool)
    assert result.ok is False
    assert result.lines == ["FAIL: double-bracket transfer: 200 samples, 200 violations"]
