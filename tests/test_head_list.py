"""The head list of a sweep against the list it replaced.

``_Supports.heads`` lists a sweep's live heads from one join over the
table's pairs.  The list it replaced, which checked every multiset of rests
one at a time and merged one stream of heads per live rest on a heap, is
kept here verbatim as the reference (``_reference_heads`` with
``_reference_head_shape``).  Both must give the same heads in the same
order, and a sweep run on either the same stream with the same visit
count.  The reference grows with the square of the pool even where no rest
is live; the join does not, which a count of ``_Supports.term`` calls pins.
"""

from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from itertools import accumulate, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liedouble import ALL_DERIVATIONS, ALL_ELEMENTS, ALL_INNER_DERIVATIONS, LieAlgebra, direct_sum, get
from liedouble import catalog, identities
from test_identities import _maps, _run


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


# identity 1 over derivations and over inner derivations, and 3, 4 and 6
# over all elements: the sweeps that list their heads
SWEEPS = [("1", ALL_DERIVATIONS), ("1", ALL_INNER_DERIVATIONS),
          ("3", ALL_ELEMENTS), ("4", ALL_ELEMENTS), ("6", ALL_ELEMENTS)]


def _pool(g, quant):
    maps = _maps(g, quant)
    return [{i: 1} for i in range(g.dim)] if maps is None else maps


def check_the_join_against_the_reference(g, sweeps=SWEEPS):
    """Each listing sweep of ``g`` lists the reference's heads, in its
    order; where the sweep takes the list (a table at most half full), its
    stream and visit count are the ones it has on the reference's list."""
    for code, quant in sweeps:
        spec = identities._IDENTITIES[code]
        pool = _pool(g, quant)
        got = list(identities._Supports(g, pool).heads(spec))
        assert got == list(_reference_heads(identities._Supports(g, pool), spec)), (code, quant)
        if identities._symbolic(g):
            stream = _run(identities._sweep, g, code, quant)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(identities._Supports, "heads", _reference_heads)
                assert stream == _run(identities._sweep, g, code, quant), (code, quant)


SUMS = {"ex413+filiform6": (("ex413", None), ("filiform", {"n": 6})), "n4+n3": (("n4", None), ("n3", None))}


@pytest.mark.parametrize("name", [*[name for name in catalog.names() if name != "filiform"], *SUMS])
def test_the_head_join_matches_the_reference_on_the_catalog(name):
    # parametric entries as their symbolic families.  On g2, 6's second term
    # meets nearly full supports, about 1 s for either list; a table that
    # full never lists its heads
    g = direct_sum(*[get(*part) for part in SUMS[name]]) if name in SUMS else get(name)
    check_the_join_against_the_reference(g, SWEEPS[:-1] if name == "g2" else SWEEPS)


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


@pytest.mark.parametrize("code", ["4", "6"])
def test_listing_heads_takes_as_many_term_calls_at_every_size(code, monkeypatch):
    # on filiform(n) no rest of 4 or 6 is live, so a list that checks the
    # rests one at a time makes O(n^2) calls (1,020 at n = 30 and 91,200
    # at n = 300 for 4); one join over the table's pairs makes a fixed few
    term = identities._Supports.term
    calls = []

    def counted(self, node, occ):
        calls.append(node)
        return term(self, node, occ)

    monkeypatch.setattr(identities._Supports, "term", counted)
    spec = identities._IDENTITIES[code]
    counts = []
    for n in (30, 300):
        g = get("filiform", {"n": n})
        del calls[:]
        assert list(identities._Supports(g, _pool(g, ALL_ELEMENTS)).heads(spec)) == []
        counts.append(len(calls))
    assert counts[0] == counts[1], counts
