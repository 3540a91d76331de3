"""Implicative filters: membership, generation, the full lattice, spectrum, depth.

Filters are bit masks over the algebra's universe (see core).  The
lattice and the spectrum keep their members sorted by (popcount, mask)
so every derived structure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteHilbertAlgebra, _Frozen, bit, iter_bits, subset_of
from .errors import PreconditionError


def is_implicative_filter(A: FiniteHilbertAlgebra, S: int) -> bool:
    """Contains 1 and is closed under modus ponens."""
    if not S >> A.top & 1:
        return False
    members = list(iter_bits(S))
    for a in members:
        row = A.arrow[a]
        for b in range(A.size):
            if S >> row[b] & 1 and not S >> b & 1:
                return False
    return True


def fg_closure(A: FiniteHilbertAlgebra, X: int) -> int:
    """Least implicative filter containing X (iterated modus ponens)."""
    F = X | bit(A.top)
    changed = True
    while changed:
        changed = False
        for a in iter_bits(F):
            row = A.arrow[a]
            for b in range(A.size):
                if F >> row[b] & 1 and not F >> b & 1:
                    F |= bit(b)
                    changed = True
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


@dataclass(init=False, repr=False, eq=False)
class FilterLattice(_Frozen):
    """Every implicative filter of an algebra, as masks."""

    algebra: FiniteHilbertAlgebra
    filters: tuple  # masks, sorted by (popcount, mask)

    def __init__(self, algebra: FiniteHilbertAlgebra, filters: tuple):
        self.__dict__.update(algebra=algebra, filters=filters)


def all_filters(A: FiniteHilbertAlgebra) -> FilterLattice:
    """Every implicative filter of A.

    Built once per algebra by _build_lattice and kept on the instance.
    It can have 2^(|A|-1) members, so only callers that need the whole
    lattice use it; the spectrum has its own, polynomial, construction.
    """
    return A._filter_lattice


def _build_lattice(A: FiniteHilbertAlgebra) -> FilterLattice:
    """Fi(A) in one BFS over one-element extensions (_fg_with); every
    filter other than {1} is reached from a smaller one this way."""
    bottom = bit(A.top)
    found = {bottom}
    frontier = [bottom]
    while frontier:
        F = frontier.pop()
        for a in range(A.size):
            if F >> a & 1:
                continue
            G = _fg_with(A, F, a)
            if G not in found:
                found.add(G)
                frontier.append(G)
    return FilterLattice(algebra=A, filters=_by_size(found))


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
    over the columns in order, each as one tuple.
    """
    top = A.top
    universe = A.universe_mask()
    spectrum = []
    for a, column in enumerate(zip(*A.arrow)):
        if a != top and set(column) <= {a, top}:
            down = subset_of(x for x, v in enumerate(column) if v == top)
            spectrum.append(universe & ~down)
    return _by_size(spectrum)


@dataclass(init=False, repr=False, eq=False)
class SpectrumPoset(_Frozen):
    """Meet-irreducible filters under inclusion (the spectrum A_*)."""

    algebra: FiniteHilbertAlgebra
    filters: tuple  # masks, sorted by (popcount, mask)

    def __init__(self, algebra: FiniteHilbertAlgebra, filters: tuple):
        self.__dict__.update(algebra=algebra, filters=filters)

    def __contains__(self, F: int) -> bool:
        return F in self.filters

    @staticmethod
    def leq(F: int, G: int) -> bool:
        return F & G == F

    def max_chain_size(self) -> int:
        """Longest chain, counted in elements."""
        best = {}
        for F in self.filters:  # popcount order: subsets come first
            best[F] = 1 + max(
                (best[G] for G in self.filters if G != F and G & F == G),
                default=0,
            )
        return max(best.values(), default=0)


def meet_irreducibles(A: FiniteHilbertAlgebra) -> SpectrumPoset:
    """Filters that are neither the maximum nor a meet of two larger ones.

    Built once per algebra by _build_spectrum and kept on the instance.
    """
    return SpectrumPoset(algebra=A, filters=A._spectrum)


def depth(A: FiniteHilbertAlgebra) -> int:
    """Maximum chain size in the spectrum; 0 for the trivial algebra."""
    return meet_irreducibles(A).max_chain_size()


def separate(A: FiniteHilbertAlgebra, F: int, a: int) -> int:
    """A meet-irreducible G with F <= G and a not in G.

    Deterministic: the inclusion-maximal candidate, ties broken by least
    bit pattern (the classical proof extends F to a filter maximal among
    those avoiding a).
    """
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
    spectrum = meet_irreducibles(A)
    candidates = [G for G in spectrum.filters if G & X == X and not G >> a & 1]
    if not candidates:
        raise PreconditionError("no separating meet-irreducible (input not a filter?)")
    maximal = [
        G for G in candidates if not any(H != G and H & G == G for H in candidates)
    ]
    if len(maximal) == 1 or E == bit(A.top):
        return min(maximal)
    leaders = _class_leaders(A, E)
    return min(maximal, key=lambda G: G & leaders)


def _class_leaders(A: FiniteHilbertAlgebra, E: int) -> int:
    """The least element of each theta_E class, as a mask.

    a theta_E b iff a -> b and b -> a lie in E, iff Fg(E | {a}) =
    Fg(E | {b}): b lies in Fg(E | {a}) iff a -> b lies in E, and then
    Fg(E | {b}) <= Fg(E | {a}); likewise with a and b swapped.
    """
    seen = set()
    leaders = 0
    for a in range(A.size):
        key = _fg_with(A, E, a)
        if key not in seen:
            seen.add(key)
            leaders |= bit(a)
    return leaders
