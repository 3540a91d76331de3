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
fixing the top) of each class, computed once per distinct table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations, compress, permutations
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from .core import FiniteHilbertAlgebra, _extend_closed, bit, iter_bits, subset_of
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
        n, leq = self.size, self.leq
        r = range(n)
        up = [subset_of(compress(r, leq[a])) for a in r]
        for a in r:
            # Row a holds iff a <= a and each b >= a has its up-set inside
            # a's and, unless b = a, is not <= a.  A row that fails, or is
            # not n long, is scanned cell by cell, which raises on its
            # first bad cell.
            row, ua = leq[a], up[a]
            if len(row) == n and ua >> a & 1:
                for b in compress(r, row):
                    if up[b] & ~ua or b != a and up[b] >> a & 1:
                        break
                else:
                    continue
            if not row[a]:
                raise RangeError("leq is not reflexive")
            for b in r:
                if a != b and row[b] and leq[b][a]:
                    raise RangeError("leq is not antisymmetric")
                for c in r:
                    if row[b] and leq[b][c] and not row[c]:
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


def _picker(indices) -> Callable[[Sequence], tuple]:
    """The function taking a sequence to the tuple of its items at
    `indices`.  A bare itemgetter returns a scalar for one index and
    cannot be built from none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _code_relabellers(k: int) -> List[Callable[[Sequence], tuple]]:
    """One picker per permutation q of 0..k-1, taking the flat relation
    of a poset (see _flat_relation) to the code of its relabelling by q."""
    pairs = list(combinations(range(k), 2))
    return [
        _picker([q[a] * k + q[b] for a, b in pairs]) for q in permutations(range(k))
    ]


def _flat_relation(down) -> list:
    """Row-major k*k list over the principal down-sets `down`: entry
    x*k + y is 1 if x is below y, 2 if y is below x, else 0."""
    k = len(down)
    return [
        1 if down[y] >> x & 1 else 2 if down[x] >> y & 1 else 0
        for x in range(k)
        for y in range(k)
    ]


def _down_masks(k: int, code: tuple) -> tuple:
    """The principal down-set masks of the poset with this code."""
    down = [bit(x) for x in range(k)]
    for (a, b), s in zip(combinations(range(k), 2), code):
        if s == 1:
            down[b] |= bit(a)
        elif s == 2:
            down[a] |= bit(b)
    return tuple(down)


def _class_codes(k: int) -> List[tuple]:
    """The least code of each isomorphism class of k-point posets,
    ascending.

    Every k-poset loses a maximal point to a (k-1)-poset isomorphic to a
    class representative, so each class has a member that is a
    representative on k-1 points plus a new maximal point k-1 above one
    of its down-sets.  Those candidates meet every class; the least code
    over their k! relabellings is the class's least code.
    """
    if k == 0:
        return [()]
    relabellers = _code_relabellers(k)
    codes = set()
    for code in _class_codes(k - 1):
        down = _down_masks(k - 1, code)
        for below in _closed_masks(down):
            flat = _flat_relation(down + (below | bit(k - 1),))
            codes.add(min(relabel(flat) for relabel in relabellers))
    return sorted(codes)


def all_posets(k: int, up_to_iso: bool = False) -> List[Poset]:
    """All posets on k labeled elements (or one per isomorphism class).

    A poset's code lists, for each pair a < b in lexicographic order, 0 if
    a and b are incomparable, 1 if a is below b and 2 if b is below a.
    Posets come in ascending code order, and a class is represented by
    its least code (_class_codes).  Every labelled poset is a relabelling
    of its class's representative, so relabelling those reaches every
    code.
    """
    codes = _class_codes(k)
    if not up_to_iso:
        relabellers = _code_relabellers(k)
        flats = [_flat_relation(_down_masks(k, code)) for code in codes]
        codes = sorted({relabel(flat) for flat in flats for relabel in relabellers})
    out = []
    for code in codes:
        down = _down_masks(k, code)
        leq = tuple(tuple(bool(down[b] >> a & 1) for b in range(k)) for a in range(k))
        out.append(Poset(size=k, leq=leq))
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


def _table_relabellers(n: int) -> List[Tuple[Callable[[Sequence], tuple], bytes]]:
    """One (picker, values) pair per permutation h of 0..n-2, with the top
    n-1 fixed.  For a flat table T as bytes, picker(T.translate(values))
    is the flat table of h(T): cell (x, y) holds h(T[h^-1 x][h^-1 y])."""
    top = n - 1
    out = []
    for images in permutations(range(top)):
        h = images + (top,)
        hinv = [0] * n
        for a, ha in enumerate(h):
            hinv[ha] = a
        picker = _picker([hinv[x] * n + hinv[y] for x in range(n) for y in range(n)])
        out.append((picker, bytes(h) + bytes(range(n, 256))))
    return out


def _canonical(flat: bytes, relabellers) -> tuple:
    """The least relabelling of the flat table `flat` over `relabellers`
    (from _table_relabellers), as a tuple."""
    return min(picker(flat.translate(values)) for picker, values in relabellers)


def _closed_subsets(U: FiniteHilbertAlgebra, n: int) -> List[int]:
    """The ->-closed subsets of U with n elements, as masks.

    Grown from {1} by adding one element and closing.  A closed S is
    reached through closure{s1} <= closure{s1, s2} <= ... = S, none of
    them larger than S, so a closure is abandoned once it passes n
    elements.
    """
    start = bit(U.top)
    seen = {start}
    frontier = [(start, [U.top])]
    while frontier:
        S, members = frontier.pop()
        for a in range(U.size):
            if S >> a & 1:
                continue
            grown = _extend_closed(U.arrow, S, members, (a,), n)
            if grown is not None and grown[0] not in seen:
                seen.add(grown[0])
                frontier.append(grown)
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
    tables = set()
    for k in range(n):
        for P in all_posets(k, up_to_iso=True):
            _, U = heyting_from_poset(P)
            for S in _closed_subsets(U, n):
                members = list(iter_bits(S))  # U's top is its last element
                index = {x: i for i, x in enumerate(members)}
                tables.add(bytes(index[U.arrow[x][y]] for x in members for y in members))
    relabellers = _table_relabellers(n)
    found = {_canonical(flat, relabellers) for flat in tables}
    return [
        FiniteHilbertAlgebra.from_table(
            [list(flat[a * n : (a + 1) * n]) for a in range(n)]
        )
        for flat in sorted(found)
    ]
