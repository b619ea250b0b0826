"""The images that the Fixed-element sweep and the R-matrix Jacobiator reuse
are computed once.

Counting subclasses, in the style of ``tests/test_quantified_large.py``,
bound the calls; each verdict must be the one of the uncounted run.
"""

import os
import subprocess
import sys
import tracemalloc

import pytest

import liedouble
from liedouble import ALL_DERIVATIONS, ALL_ELEMENTS, Fixed, LieAlgebra, Matrix, check_quantified, get
from liedouble import is_classical_rmatrix, parse_element


class _Counting(LieAlgebra):
    """A Lie algebra that counts the brackets of ``z`` with a basis vector."""

    z = None
    calls = 0

    def bracket_sparse(self, u, v):
        if u is self.z and len(v) == 1 and 1 in v.values():
            self.calls += 1
        return super().bracket_sparse(u, v)


def _symbolic(g):
    return " + ".join(f"z{k + 1}*{label}" for k, label in enumerate(g.labels))


@pytest.mark.parametrize("code", ["3", "4"])
def test_fixed_z_is_bracketed_with_each_basis_vector_once(code):
    g = get("sl3")
    h = _Counting(g.dim, g.table, labels=g.labels, params=g.params)
    z = parse_element(h, _symbolic(h))
    h.z = z._sparse
    rep = check_quantified(h, code, Fixed(z))
    ref = check_quantified(g, code, Fixed(parse_element(g, _symbolic(g))))
    assert rep.status == ref.status
    assert [str(p) for p in rep.conditions] == [str(p) for p in ref.conditions]
    assert 0 < h.calls <= g.dim


# The traced check of a Fixed z sweep, for a fresh interpreter: every name
# a process registers widens the packed monomials of its later polynomial
# arithmetic for good, so the same check read 639 KiB after 83 other names
# had been registered, against 427 KiB alone
_FIXED_Z_PEAK = """
import gc, tracemalloc
from liedouble import Fixed, check_quantified, get, parse_element
g = get("sp4")
z = Fixed(parse_element(g, " + ".join(f"z{k + 1}*{label}" for k, label in enumerate(g.labels))))
gc.disable()
check_quantified(g, "3", z)
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
rep = check_quantified(g, "3", z)
peak = tracemalloc.get_traced_memory()[1] - start
tracemalloc.stop()
print(rep.status, peak)
"""


def test_a_fixed_z_sweep_keeps_no_tail_parts_or_inner_values():
    # the head is unique, so nothing is read twice.  Keeping every tail part
    # and inner value for the whole call peaks at about 830 KiB; without them
    # it is about 430 KiB, and the bound leaves room between Python versions.
    # The interpreter keeps freed objects on free lists, which tracemalloc
    # counts where a call fills them: 2,000 tuples of 20 names read as 390
    # KiB more on a first call.  So a first, untraced check fills them, and
    # no collection empties them before the traced one: its peak counts what
    # the sweep allocates and holds.  It runs in a fresh interpreter, so
    # that the names other tests register do not count
    src = os.path.dirname(os.path.dirname(liedouble.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _FIXED_Z_PEAK], env=env, capture_output=True,
                         text=True, check=True)
    status, peak = out.stdout.split()
    assert status == "conditional"
    assert int(peak) <= 600 * 1024, peak


@pytest.mark.parametrize("code, quantifier, bound", [("4", ALL_ELEMENTS, 410), ("1", ALL_DERIVATIONS, 252)],
                         ids=["4-all-elem", "1-all-der"])
def test_a_sweep_keeps_values_for_visited_tuples_only(code, quantifier, bound):
    # a sweep keeps each tail part and inner value it computes, zeros
    # included, at the tuples its heads visit: 59 and 132 KiB here.  Keyed by
    # position, over all C(n, k) tuples, the kept rows peaked at 821 and 504
    # KiB on filiform(20); the bound is half of that.  A first, untraced
    # check builds the algebra's caches and the derivation space
    g = get("filiform", {"n": 20})
    check_quantified(g, code, quantifier)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = check_quantified(g, code, quantifier)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rep.status == "holds"
    assert peak <= bound * 1024, peak


def test_jacobiator_applies_r_once_per_basis_vector_and_pair(monkeypatch):
    g = get("sl3")
    r = g.ad(parse_element(g, _symbolic(g)))
    ref = is_classical_rmatrix(g, r)
    calls = []
    apply_sparse = Matrix.apply_sparse

    def counted(self, v):
        calls.append(v)
        return apply_sparse(self, v)

    monkeypatch.setattr(Matrix, "apply_sparse", counted)
    rep = is_classical_rmatrix(g, r)
    n = g.dim
    assert rep.status == ref.status == "conditional"
    assert [str(p) for p in rep.conditions] == [str(p) for p in ref.conditions]
    assert len(calls) <= n + n * (n - 1) // 2
