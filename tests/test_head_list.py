"""Every sparse sweep against the sweep on the supports it replaced.

A sweep of a table at most half full takes its heads and its tuples from
one join per term, with every head occurrence a variable
(``_Supports.walks`` and ``_Supports.heads``), for every identity, the
square bracket and Fixed payloads alike.  The supports it replaced, which
each head joined again with concrete occurrences, are kept verbatim in
``test_identities`` as ``_ParentSupports``, with the sweep that ran on them
(``_product_sweep``).  Their head lists are references too: the one join of
``_ParentSupports.heads``, and the list before it, which checked every
multiset of rests one at a time and merged one stream of heads per live
rest on a heap (``_reference_heads`` with ``_reference_head_shape``, kept
here verbatim).  Each sweep must give the same stream on each, and so the
same verdict.  The head list itself now leaves out every head whose walk
is empty, and a head no longer fills the rows of its rests, so streams are
compared, not lists or visit counts.  Listing heads takes a fixed
few joins whatever the pool's size, which a count of ``_Supports.term``
calls pins.
"""

from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from itertools import accumulate, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedouble import ALL_DERIVATIONS, ALL_ELEMENTS, ALL_INNER_DERIVATIONS, LieAlgebra, direct_sum, get
from liedouble import catalog, derivation_space, identities
from test_identities import _ParentSupports, _maps, _product_sweep, _run, every_sweep


def _reference_heads(self, spec):
    """Lazily yield, in product order, the heads of ``spec`` whose walk
    can be nonempty, as ``_sweep`` takes them: per group, its key part
    and its pool indices, which are equal here.  These are the heads
    with a rest whose inner support is nonempty, since a term of 1, 3, 4
    and 6 reads the rest through the inner node only and the head may
    fill the rest's row, and those where a later term (6's second) can
    be nonzero at some ordering.

    Each multiset of rests is checked once, in the order of its first
    head (first occurrence 0), by the supports that ``of`` keeps for the
    walk.  A live one gives a stream of heads, one per first occurrence,
    and the streams are merged on a heap.  The later terms are joined
    once per z, the head's first group, with the other occurrences as
    variables.  The next rest and the next z wait until they could give
    a head below the heap's least, so a failing sweep checks about the
    rests that its own heads read."""
    k = len(self.pool)
    sizes, cuts, shape, perms = _reference_head_shape(spec.groups)
    inner, later = spec.terms[0].kids[-1], spec.terms[1:]

    def multisets(i=0):  # the first head (0, *rest) of every rest, in order
        for group in combinations_with_replacement(range(k), shape[i]):
            if i + 1 == len(shape):
                yield (0,) + group
            else:
                for others in multisets(i + 1):
                    yield (0,) + group + others[1:]

    firsts = multisets()
    first = next(firsts, None)
    z = 0 if later else k  # the next z whose later terms are not joined yet
    low = (0,) * (sum(sizes) - 1)
    # heads are flat on the heap, which keeps product order: (head, its
    # first occurrence, the rest's part of the first group, the other
    # groups) from a live rest, (head, k, (), ()) from a later term
    heap: list = []
    last = ()
    while True:
        # what can give no head below the heap's least waits: a head
        # equal to it that comes again later is not yielded twice
        top = heap[0][0] if heap else None
        if first is not None and (top is None or first < top):
            if self.of(inner, first) or perms and any(
                    self.of(inner, tuple([first[i] for i in perm])) for perm in perms):
                heappush(heap, (first, 0, first[1:sizes[0]], first[sizes[0]:]))
            first = next(firsts, None)
        elif z < k and (top is None or (z,) + low < top):
            for term in later:
                for key in self.term(term, (z,) + (None,) * len(low)):
                    order = (z,) + tuple(i for _, i in sorted(e for e in key if type(e) is tuple))
                    head = sum([tuple(sorted(order[a:b])) for a, b in cuts], ())
                    heappush(heap, (head, k, (), ()))
            z += 1
        elif top is None:
            return
        else:
            top, c, part, tail = heap[0]
            if top > last:
                last = top
                yield [(top[a:b],) * 2 for a, b in cuts]
            c += 1
            if c < k:  # the head of that rest with the next first occurrence
                heapreplace(heap, (tuple(sorted(part + (c,))) + tail, c, part, tail))
            else:
                heappop(heap)


@lru_cache(maxsize=None)
def _reference_head_shape(groups) -> tuple:
    """For the heads of an entry with these slot groups: the sizes of the
    head groups, their (start, end) in a flat head, the sizes of a rest's
    parts (its part of the first group, then the other groups), and the
    orderings of an ordering (0, *rest) other than itself, each as the
    indices it picks: they permute the rest within each part."""
    sizes = [d for _, d in groups[:-1]]
    shape = [d - (g == 0) for g, d in enumerate(sizes)]
    cuts = list(zip(accumulate(sizes, initial=0), accumulate(sizes)))
    ends = list(accumulate(shape, initial=1))
    perms = [(0,) + sum(perm, ()) for perm in product(*[
        permutations(range(a, b)) for a, b in zip(ends, ends[1:])])]
    return sizes, cuts, shape, perms[1:]


def _pool(g, quant):
    maps = _maps(g, quant)
    return [{i: 1} for i in range(g.dim)] if maps is None else maps


def check_the_join_against_the_reference(g, skip=(), full=True):
    """Every sweep of ``g`` (``every_sweep``, but the codes in ``skip``)
    gives the stream that it gives on the earlier supports,
    with the earlier join's head list and, when ``full``, with the list
    before it and with polynomial Fixed payloads too.  A table more than
    half full takes the symbolic phase here as well."""
    listers = (_ParentSupports.heads, _reference_heads)[:1 + full]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_symbolic", lambda g: True)
        for code, quant in every_sweep(g, symbolic=full):
            if code in skip:
                continue
            got, _ = _run(identities._sweep, g, code, quant)
            for lister in listers:
                ref, _ = _run(lambda *args: _product_sweep(*args, lister=lister), g, code, quant)
                assert got == ref, (code, quant, lister.__name__)


SUMS = {"ex413+filiform6": (("ex413", None), ("filiform", {"n": 6})), "n4+n3": (("n4", None), ("n3", None))}


@pytest.mark.parametrize("name", [*[name for name in catalog.names() if name != "filiform"], *SUMS])
def test_the_head_join_matches_the_reference_on_the_catalog(name):
    # parametric entries as their symbolic families.  g2's table is nearly
    # full, so that its supports are too: forced through the symbolic phase,
    # which it never takes, its sweeps of 3, 4, 6 and s5 take 0.5-1.7 s each
    # on either side, and 6 on the earlier head list about 1 s more
    g = direct_sum(*[get(*part) for part in SUMS[name]]) if name in SUMS else get(name)
    if name == "g2":
        check_the_join_against_the_reference(g, ("3", "4", "6", "s5"), full=False)
    else:
        check_the_join_against_the_reference(g)


@pytest.mark.parametrize("n", [*range(3, 13), 16, 20, 30, 40])
def test_the_head_join_matches_the_reference_on_filiform(n):
    check_the_join_against_the_reference(get("filiform", {"n": n}))


@st.composite
def sparse_tables(draw):
    """A sparse antisymmetric table, Jacobi or not: a few basis pairs, each
    bracketing to one or two basis vectors with small integer weights."""
    n = draw(st.integers(3, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    table = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True)):
        coords = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        table[(i, j)] = {k: draw(st.sampled_from((1, -1, 2))) for k in coords}
    return LieAlgebra(n, table, validate=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_tables())
def test_the_head_join_matches_the_reference_on_drawn_sparse_tables(g):
    check_the_join_against_the_reference(g)


def test_a_head_is_listed_only_where_its_walk_can_be_nonempty():
    # the earlier lists took every first occurrence of a live rest, 39 heads
    # for 4 and 19 for 1 over all derivations of ex413, and then the first
    # head of each live rest, which filled its row, 6 and 3
    g = get("ex413")
    for code, pool, count in (("4", _pool(g, ALL_ELEMENTS), 3),
                              ("1", derivation_space(g).basis, 1)):
        spec = identities._IDENTITIES[code]
        assert len(identities._Supports(g, pool).heads(spec)) == count, code


@pytest.mark.parametrize("code", ["4", "6"])
def test_listing_heads_takes_as_many_term_calls_at_every_size(code, monkeypatch):
    # on filiform(n) no ordering of 4 or 6 is live; one join per node over
    # the table's pairs makes a fixed few calls, where a list that checked
    # the rests one at a time made O(n^2) (1,020 at n = 30 and 91,200 at
    # n = 300 for 4)
    term = identities._Supports.term
    calls = []

    def counted(self, node):
        calls.append(node)
        return term(self, node)

    monkeypatch.setattr(identities._Supports, "term", counted)
    spec = identities._IDENTITIES[code]
    counts = []
    for n in (30, 300):
        g = get("filiform", {"n": n})
        del calls[:]
        assert identities._Supports(g, _pool(g, ALL_ELEMENTS)).heads(spec) == []
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
