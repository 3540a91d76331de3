"""Implicative filters: membership, generation, the full lattice, spectrum, depth.

Filters are bit masks over the algebra's universe (see core).  The
lattice and the spectrum keep their members sorted by (popcount, mask)
so every derived structure is deterministic.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from .core import (
    FiniteHilbertAlgebra,
    _check_int,
    _check_mask,
    _marks,
    bit,
    iter_bits,
    subset_of,
)
from .enumeration import _closed_masks, _longest_chain
from .errors import PreconditionError, RangeError, SizeLimitError


def is_implicative_filter(A: FiniteHilbertAlgebra, S: int) -> bool:
    """Contains 1 and is closed under modus ponens: S is its own closure."""
    return fg_closure(A, S) == S


def fg_closure(A: FiniteHilbertAlgebra, X: int) -> int:
    """Least implicative filter containing X.

    Fg(X) is reached from {1} by adding the members of X one at a time,
    and each step Fg(F | {a}) is one row of the table (_fg_with, the
    deduction theorem).  A member already in F changes nothing.
    """
    _check_mask(A, X)
    F = bit(A.top)
    for a in iter_bits(X):
        if not F >> a & 1:
            F = _fg_with(A, F, a)
    return F


def _fg_with(A: FiniteHilbertAlgebra, F: int, a: int) -> int:
    """Fg(F | {a}) for a filter F: by the deduction theorem it is
    {b : a -> b in F}, one pass over row a."""
    row = A.arrow[a]
    return subset_of(b for b in range(A.size) if F >> row[b] & 1)


def _by_size(masks) -> tuple:
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


# ---------------------------------------------------------------------------
# the lattice of all filters


def all_filters(A: FiniteHilbertAlgebra) -> tuple:
    """Every implicative filter of A, as masks sorted by (popcount, mask):
    up to 2^(|A|-1) of them, so only callers that list the lattice build
    it, once each."""
    return _build_lattice(A)


def _build_lattice(A: FiniteHilbertAlgebra) -> tuple:
    """Fi(A) as the meets of the up-sets U of Spec(A), with the empty
    meet A.  Fi(A) is distributive (Diego), so each meet-irreducible is
    meet-prime and U |-> meet(U) is a bijection onto Fi(A), with inverse
    F |-> {P : F <= P} (README, "Filters and the spectrum")."""
    spectrum = A._spectrum
    meets = (
        reduce(and_, map(spectrum.__getitem__, iter_bits(U)), A.universe_mask())
        for U in _closed_masks(_above(spectrum))
    )
    return _by_size(meets)


# Most states _count_filters memoises.  m disjoint 2-chains need
# 2^(m+1) - 1, so m = 19 still counts (1.8 s and 115 MB, Python 3.11).
_COUNT_STATES = 1 << 20


def _count_filters(A: FiniteHilbertAlgebra) -> int:
    """|Fi(A)|, the number of up-sets of Spec(A), without listing them:
    count(P) = count(P - down(x)) + count(P - up(x)) (the up-sets without
    x, then with x), memoised on the points left.  x is the first point
    left, minimal among them as Spec(A) is sorted by size: down(x) = {x}.
    SizeLimitError once the memo holds more than _COUNT_STATES states."""
    up = _above(A._spectrum)
    memo = {0: 1}

    def count(rest: int) -> int:
        if rest not in memo:
            x = (rest & -rest).bit_length() - 1
            memo[rest] = count(rest & (rest - 1)) + count(rest & ~up[x])
            if len(memo) > _COUNT_STATES:
                raise SizeLimitError(
                    f"counting the filters needs more than {_COUNT_STATES} states"
                )
        return memo[rest]

    return count((1 << len(up)) - 1)


def _above(points: tuple) -> list:
    """For each filter in points, the indices of those containing it."""
    return [subset_of(j for j, Q in enumerate(points) if P & Q == P) for P in points]


# ---------------------------------------------------------------------------
# the spectrum


def _build_spectrum(A: FiniteHilbertAlgebra) -> tuple:
    """The meet-irreducible filters, read off the arrow table.

    By Diego's description, Spec(A) is the set of A - down(a) for a != 1
    that are filters, where down(a) = {x : x -> a = 1}.  A - down(a) is an
    upset containing 1, and it is closed under modus ponens iff x -> a = a
    for every x outside down(a): take y = a for necessity; for
    sufficiency, y <= a gives x -> y <= x -> a = a.  So a != 1 contributes
    iff column a holds only a and 1.  O(|A|^2) in all; zip(*...) hands
    over the columns in order, each as one tuple, and down(a) is read off
    its bytes marked through core._marks({1}).
    """
    top = A.top
    universe = A.universe_mask()
    is_top = _marks(bit(top))
    spectrum = []
    for a, column in enumerate(zip(*A.arrow)):
        if a != top and set(column) <= {a, top}:
            down = int(bytes(column).translate(is_top)[::-1], 2)
            spectrum.append(universe & ~down)
    return _by_size(spectrum)


def meet_irreducibles(A: FiniteHilbertAlgebra) -> tuple:
    """Filters that are neither the maximum nor a meet of two larger ones:
    the masks, sorted by (popcount, mask), that _build_spectrum builds
    once per algebra and keeps on the instance."""
    return A._spectrum


def depth(A: FiniteHilbertAlgebra) -> int:
    """Maximum chain size in the spectrum; 0 for the trivial algebra."""
    return _longest_chain(A._spectrum)


def separate(A: FiniteHilbertAlgebra, F: int, a: int) -> int:
    """A meet-irreducible G with F <= G and a not in G.

    Deterministic: the inclusion-maximal candidate, ties broken by least
    bit pattern (the classical proof extends F to a filter maximal among
    those avoiding a).
    """
    _check_mask(A, F)
    _check_int(a, "element index")
    if not 0 <= a < A.size:
        raise RangeError(f"element index {a} out of range [0,{A.size})")
    return _separate(A, F, a, bit(A.top))


def _separate(A: FiniteHilbertAlgebra, X: int, a: int, E: int) -> int:
    """separate in the quotient A/E, read in A, for a filter E <= X.

    By the correspondence theorem, G |-> G/E maps the filters of A above
    E onto Fi(A/E), preserving and reflecting inclusion, and each such G
    is a union of theta_E classes, so a/E lies in G/E iff a lies in G.
    Hence Spec(A/E) is the image of the members of Spec(A) above E, and
    the candidates are the G in Spec(A) with X <= G and a not in G
    (X >= E).  A/E numbers its classes by ascending least member
    (quotient.quotient), so the bit of class i in a mask of A/E becomes
    the bit of that class's least member in G & L, where L holds the
    least member of every class (_class_leaders): comparing quotient
    masks is comparing G & L as integers.  With E = {1} theta_E is the
    identity (a -> b = b -> a = 1 gives a = b), L is all of A, and this
    is separate(A, X, a).
    """
    if X >> a & 1:
        raise PreconditionError(f"element {a} already in the filter")
    candidates = [G for G in A._spectrum if G & X == X and not G >> a & 1]
    if not candidates:
        raise PreconditionError("no separating meet-irreducible (input not a filter?)")
    maximal = []  # largest first: a strict superset comes before its subsets
    for G in reversed(candidates):
        if not any(H & G == G for H in maximal):
            maximal.append(G)
    if len(maximal) == 1 or E == bit(A.top):
        return min(maximal)
    leaders = _class_leaders(A, E)
    return min(maximal, key=lambda G: G & leaders)


def _class_leaders(A: FiniteHilbertAlgebra, E: int) -> int:
    """The least element of each theta_E class, as a mask.

    a theta_E b iff a -> b and b -> a lie in E, iff Fg(E | {a}) =
    Fg(E | {b}): b lies in Fg(E | {a}) iff a -> b lies in E, and then
    Fg(E | {b}) <= Fg(E | {a}); likewise with a and b swapped.  The
    row-major table marked once through core._marks(E) holds the pattern
    of Fg(E | {a}) in row a, so the rows key the classes.
    """
    n = A.size
    marked = b"".join(map(bytes, A.arrow)).translate(_marks(E))
    first = {}
    for a in range(n):
        first.setdefault(marked[a * n : a * n + n], a)
    return subset_of(first.values())
