"""Each layer alone on fixed inputs (no seed), untraced.

Each kernel is timed in several batches of repetitions, about ``_MIN_S`` of
work in all, and reports the median time per call over the batches.  No gate
checks these numbers; they show where a change to one layer lands.
"""

import statistics
import time
from fractions import Fraction

import liedouble as ld

_perf = time.perf_counter
_MIN_S = 0.15


class _Captured(Exception):
    pass


def _timed(fn, batches=5):
    """Median seconds per call of ``fn`` over several batches."""
    n, start = 0, _perf()
    while _perf() - start < _MIN_S / batches or n == 0:
        fn()
        n += 1
    per = []
    for _ in range(batches):
        t = _perf()
        for _ in range(n):
            fn()
        per.append((_perf() - t) / n)
    return statistics.median(per)


def _poly(expr):
    return ld.parse_scalar(expr).numerator_poly()


def _scalar_kinds():
    x, y = ld.Scalar.variable("x"), ld.Scalar.variable("y")
    return {
        "rational": (ld.Scalar.of(Fraction(22, 7)), ld.Scalar.of(Fraction(-5, 13))),
        "polynomial": (x * x + 3 * x * y - 2, y * y - x + Fraction(1, 2)),
        "fraction": ((x + 1) / (y - 2), (x * y - 3) / (x + y + 1)),
    }


def _dense(g, k):
    """A fixed element with most coordinates nonzero."""
    return {i: ld.Scalar.of(Fraction((i * k) % 7 - 3, 1 + i % 3))
            for i in range(g.dim) if (i * k) % 7 != 3}


def _capture_leibniz_matrix(n):
    """The matrix ``derivation_space(filiform(n))`` hands to ``nullspace``."""
    from liedouble import derivations

    captured = []
    original = derivations.nullspace

    def grab(m):
        captured.append(m)
        raise _Captured

    derivations.nullspace = grab
    try:
        ld.derivation_space(ld.get("filiform", {"n": n}))
    except _Captured:
        pass
    finally:
        derivations.nullspace = original
    return captured[0]


def run():
    """Kernel metrics: name -> (value, unit)."""
    out = {}
    a, b = _poly("(x + 2*y - 1)^4 * (x - y + 3)^3"), _poly("(x - 3*y + 2)^4")
    prod = a * b
    out["kernel.poly_mul_us"] = (1e6 * _timed(lambda: a * b), "us")
    out["kernel.poly_exact_div_us"] = (1e6 * _timed(lambda: prod.exact_div(b)), "us")
    for kind, (u, v) in _scalar_kinds().items():
        out[f"kernel.scalar_add_{kind}_us"] = (1e6 * _timed(lambda: u + v), "us")
        out[f"kernel.scalar_mul_{kind}_us"] = (1e6 * _timed(lambda: u * v), "us")
    g2 = ld.get("g2")
    one = ld.Scalar.of(1)
    pairs = [({i: one}, {j: one}) for i in range(g2.dim) for j in range(g2.dim)]
    out["kernel.bracket_g2_basis_us"] = (
        1e6 * _timed(lambda: [g2.bracket_sparse(u, v) for u, v in pairs]) / len(pairs), "us")
    u, v = _dense(g2, 3), _dense(g2, 5)
    out["kernel.bracket_g2_dense_us"] = (1e6 * _timed(lambda: g2.bracket_sparse(u, v)), "us")
    m = _capture_leibniz_matrix(18)
    t = _perf()
    ld.nullspace(m)
    out["kernel.nullspace_filiform18_s"] = (_perf() - t, "s")
    cases = (
        ("1", ld.get("filiform", {"n": 7}), ld.ALL_DERIVATIONS),
        ("2", ld.get("filiform", {"n": 9}), ld.ALL_DERIVATIONS),
        ("3", ld.get("filiform", {"n": 7}), ld.ALL_ELEMENTS),
        ("4", ld.get("filiform", {"n": 7}), ld.ALL_ELEMENTS),
        ("6", ld.get("filiform", {"n": 6}), ld.ALL_ELEMENTS),
        ("s5", ld.get("filiform", {"n": 7}), ld.ALL_ELEMENTS),
    )
    for code, g, quant in cases:
        ld.derivation_space(g)  # cached: the kernel times the sweep alone
        out[f"kernel.check_quantified_id{code}_ms"] = (
            1e3 * _timed(lambda: ld.check_quantified(g, code, quant), batches=3), "ms")
    return out
