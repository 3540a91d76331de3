"""Isomorph-free exhaustive generation of finite Hilbert algebras, plus
finite Heyting algebras built as upset algebras of posets.

Hilbert algebras are the ->-subreducts of Heyting algebras, and the
generator uses that definition.  A finite A embeds into the upset
algebra Up(Spec A) by a |-> {M in Spec A : a in M} (Diego 1966; Celani,
Cabrer and Montangie 2009).  The spectrum has at most n - 1 points when
|A| = n: the column test in filters._build_spectrum gives at most one
member per a != 1.  So every n-element algebra is, up to isomorphism,
an n-element ->-closed subset of the reduct of Up(P) for a poset P with
k < n points, and conversely every such subset is a Hilbert algebra.
enumerate_hilbert collects those subsets for one P per isomorphism
class, relabels each with its top at n-1, and keeps the canonical
representative (lexicographically least table over the permutations
fixing the top) of each class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, List, Optional, Tuple

from .core import FiniteHilbertAlgebra, bit, generated_subuniverse, iter_bits
from .errors import RangeError, SizeLimitError
from .filters import depth

DEFAULT_ENUM_CAP = 5
ENUM_CAP_ENV = "HILBERT_SIZE_CAP"


def enum_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if not raw:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # refused below, with the other values that are not positive
    if cap < 1:
        raise RangeError(f"{ENUM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


# ---------------------------------------------------------------------------
# posets


@dataclass(frozen=True)
class Poset:
    size: int
    leq: tuple  # tuple of row tuples of bool

    def __post_init__(self):
        n = self.size
        for a in range(n):
            if not self.leq[a][a]:
                raise RangeError("leq is not reflexive")
            for b in range(n):
                if a != b and self.leq[a][b] and self.leq[b][a]:
                    raise RangeError("leq is not antisymmetric")
                for c in range(n):
                    if self.leq[a][b] and self.leq[b][c] and not self.leq[a][c]:
                        raise RangeError("leq is not transitive")

    def upset_mask(self, x: int) -> int:
        return sum(bit(y) for y in range(self.size) if self.leq[x][y])

    def longest_chain(self) -> int:
        """Maximum number of elements in a chain; 0 for the empty poset."""
        best = [0] * self.size
        order = sorted(range(self.size), key=lambda x: sum(self.leq[y][x] for y in range(self.size)))
        for x in order:
            below = [best[y] for y in range(self.size) if self.leq[y][x] and y != x]
            best[x] = 1 + max(below, default=0)
        return max(best, default=0)


def _closed_masks(principal) -> List[int]:
    """Masks m, ascending, with principal[x] inside m for every x in m."""
    return [
        mask
        for mask in range(1 << len(principal))
        if all(principal[x] & ~mask == 0 for x in iter_bits(mask))
    ]


def _natural_orders(k: int) -> Iterator[tuple]:
    """Orders on 0..k-1 in which a below b implies a < b, as the tuple of
    principal down-set masks.  Each is an order on 0..k-2 with the new
    maximal point k-1 placed above one of its down-sets."""
    if k == 0:
        yield ()
        return
    for down in _natural_orders(k - 1):
        for below in _closed_masks(down):
            yield down + (below | bit(k - 1),)


def all_posets(k: int, up_to_iso: bool = False) -> List[Poset]:
    """All posets on k labeled elements (or one per isomorphism class).

    A poset's code lists, for each pair a < b in lexicographic order, 0 if
    a and b are incomparable, 1 if a is below b and 2 if b is below a.
    Every poset is a relabelling of a natural order, so relabelling those
    reaches every code.  Posets come in ascending code order, and a class
    is represented by its least code.
    """
    pairs = list(combinations(range(k), 2))
    codes = set()
    for down in _natural_orders(k):
        rel = [
            [1 if down[y] >> x & 1 else 2 if down[x] >> y & 1 else 0 for y in range(k)]
            for x in range(k)
        ]
        relabelled = (
            tuple(rel[q[a]][q[b]] for a, b in pairs) for q in permutations(range(k))
        )
        if up_to_iso:
            codes.add(min(relabelled))
        else:
            codes.update(relabelled)
    out = []
    for code in sorted(codes):
        m = [[a == b for b in range(k)] for a in range(k)]
        for (a, b), s in zip(pairs, code):
            if s == 1:
                m[a][b] = True
            elif s == 2:
                m[b][a] = True
        out.append(Poset(size=k, leq=tuple(tuple(row) for row in m)))
    return out


# ---------------------------------------------------------------------------
# Heyting algebras of upsets


@dataclass(frozen=True)
class HeytingAlgebra:
    """Upsets of a poset: meet/join are intersection/union of masks,
    arrow is the relative pseudo-complement."""

    poset: Poset
    carrier: tuple  # upset masks, ascending
    arrow: tuple  # index table
    top: int
    bottom: int

    def index_of(self, mask: int) -> int:
        return self.carrier.index(mask)

    def meet(self, i: int, j: int) -> int:
        return self.index_of(self.carrier[i] & self.carrier[j])

    def join(self, i: int, j: int) -> int:
        return self.index_of(self.carrier[i] | self.carrier[j])


def upsets(P: Poset) -> List[int]:
    return _closed_masks([P.upset_mask(x) for x in range(P.size)])


def heyting_from_poset(P: Poset) -> Tuple[HeytingAlgebra, FiniteHilbertAlgebra]:
    """The upset algebra of P and its implication reduct.

    U -> V = {x : upset(x) & U <= V}.
    """
    carrier = sorted(upsets(P))
    index = {mask: i for i, mask in enumerate(carrier)}
    ups = [P.upset_mask(x) for x in range(P.size)]
    k = len(carrier)
    table = []
    for U in carrier:
        row = []
        for V in carrier:
            row.append(index[sum(bit(x) for x in range(P.size) if ups[x] & U & ~V == 0)])
        table.append(row)
    heyting = HeytingAlgebra(
        poset=P,
        carrier=tuple(carrier),
        arrow=tuple(tuple(r) for r in table),
        top=k - 1,
        bottom=0,
    )
    return heyting, FiniteHilbertAlgebra.from_table(table)


def reduct_depth_vs_poset(P: Poset) -> Tuple[int, int, bool]:
    """Depth of the upset-algebra reduct vs the poset's longest chain."""
    _, reduct = heyting_from_poset(P)
    d = depth(reduct)
    chain = P.longest_chain()
    return d, chain, d == chain


# ---------------------------------------------------------------------------
# exhaustive generation


def _canonical(flat: tuple, n: int, top: int) -> tuple:
    best = flat
    for images in permutations(range(top)):
        h = list(images) + [top]
        hinv = [0] * n
        for a, ha in enumerate(h):
            hinv[ha] = a
        relabeled = tuple(
            h[flat[hinv[x] * n + hinv[y]]] for x in range(n) for y in range(n)
        )
        if relabeled < best:
            best = relabeled
    return best


def _closed_subsets(U: FiniteHilbertAlgebra, n: int) -> List[int]:
    """The ->-closed subsets of U with n elements, as masks.

    Grown from {1} by adding one element and closing.  A closed S is
    reached through closure{s1} <= closure{s1, s2} <= ... = S, none of
    them larger than S, so sets with more than n elements are dropped.
    """
    start = bit(U.top)
    seen = {start}
    frontier = [start]
    while frontier:
        S = frontier.pop()
        for a in range(U.size):
            if S >> a & 1:
                continue
            T = generated_subuniverse(U, S | bit(a))
            if T.bit_count() <= n and T not in seen:
                seen.add(T)
                frontier.append(T)
    return [S for S in seen if S.bit_count() == n]


def enumerate_hilbert(
    n: int, cap: Optional[int] = None
) -> List[FiniteHilbertAlgebra]:
    """One representative per isomorphism class of n-element Hilbert
    algebras, in ascending canonical-table order."""
    if n < 1:
        raise RangeError("size must be at least 1")
    if cap is None:
        cap = enum_cap()
    if n > cap:
        raise SizeLimitError(f"size {n} exceeds enumeration cap {cap}")
    top = n - 1
    found = set()
    for k in range(n):
        for P in all_posets(k, up_to_iso=True):
            _, U = heyting_from_poset(P)
            for S in _closed_subsets(U, n):
                members = list(iter_bits(S))  # U's top is its last element
                index = {x: i for i, x in enumerate(members)}
                flat = tuple(index[U.arrow[x][y]] for x in members for y in members)
                found.add(_canonical(flat, n, top))
    return [
        FiniteHilbertAlgebra.from_table(
            [list(flat[a * n : (a + 1) * n]) for a in range(n)]
        )
        for flat in sorted(found)
    ]
