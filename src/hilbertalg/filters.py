"""Implicative filters: membership, generation, the full lattice, spectrum, depth.

Filters are bit masks over the algebra's universe (see core).  The
lattice keeps its members sorted by (popcount, mask) so every derived
structure is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .core import FiniteHilbertAlgebra, bit, iter_bits, subset_of
from .errors import NotInLatticeError, PreconditionError


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


def principal_filter(A: FiniteHilbertAlgebra, a: int) -> int:
    """The principal upset of a; always an implicative filter."""
    return A.upset_mask(a)


def fg_formula_member(A: FiniteHilbertAlgebra, X: int, a: int) -> bool:
    """Membership in Fg(X) via nested implications.

    a is in Fg(X) iff a = 1 or b_1 -> (... (b_k -> a)...) = 1 for some
    b_i in X.  Rather than enumerating nesting sequences, close {a}
    under t |-> b -> t for b in X and ask whether 1 shows up.
    """
    if a == A.top:
        return True
    reach = bit(a)
    frontier = [a]
    while frontier:
        t = frontier.pop()
        for b in iter_bits(X):
            v = A.arrow[b][t]
            if not reach >> v & 1:
                if v == A.top:
                    return True
                reach |= bit(v)
                frontier.append(v)
    return False


def fg_with_extra_member(A: FiniteHilbertAlgebra, X: int, c: int, a: int) -> bool:
    """Membership in Fg(X | {c}), by the deduction theorem:
    a is in Fg(X | {c}) iff c -> a is in Fg(X).  (a = 1 is covered too,
    since c -> 1 = 1.)"""
    return fg_formula_member(A, X, A.arrow[c][a])


def fg_with_extra(A: FiniteHilbertAlgebra, X: int, c: int) -> int:
    """Fg(X | {c}); fg_with_extra_member is the matching formula oracle."""
    return fg_closure(A, X | bit(c))


# ---------------------------------------------------------------------------
# the lattice of all filters and its spectrum


@dataclass(frozen=True)
class FilterLattice:
    algebra: FiniteHilbertAlgebra
    filters: tuple  # masks, sorted by (popcount, mask)
    spectrum: tuple  # the meet-irreducible members, in the same order

    @property
    def maximum(self) -> int:
        return self.algebra.universe_mask()

    def __contains__(self, F: int) -> bool:
        return F in self.filters

    def join(self, F: int, G: int) -> int:
        return fg_closure(self.algebra, F | G)


def all_filters(A: FiniteHilbertAlgebra) -> FilterLattice:
    """Every implicative filter of A, with the spectrum.

    Built once per algebra by _build_lattice and kept on the instance.
    """
    return A._filter_lattice


def _build_lattice(A: FiniteHilbertAlgebra) -> FilterLattice:
    """Fi(A) and its spectrum in one BFS over one-element extensions.

    For a filter F the deduction theorem gives Fg(F | {a}) =
    {b : a -> b in F}.  The upper covers of F are the minimal sets among
    these extensions: if G covers F and a is in G - F, then
    F < Fg(F | {a}) <= G.  F is meet-irreducible iff it has exactly one
    upper cover, i.e. iff the meet of its extensions is one of them (a
    finite family has a single minimal member iff it contains its meet).
    """
    n = A.size
    arrow = A.arrow
    bottom = bit(A.top)
    found = {bottom}
    frontier = [bottom]
    irreducible = set()
    while frontier:
        F = frontier.pop()
        extensions = {
            subset_of(b for b in range(n) if F >> arrow[a][b] & 1)
            for a in range(n)
            if not F >> a & 1
        }
        if extensions and reduce(and_, extensions) in extensions:
            irreducible.add(F)
        for G in extensions - found:
            found.add(G)
            frontier.append(G)
    key = lambda m: (m.bit_count(), m)
    return FilterLattice(
        algebra=A,
        filters=tuple(sorted(found, key=key)),
        spectrum=tuple(sorted(irreducible, key=key)),
    )


@dataclass(frozen=True)
class SpectrumPoset:
    """Meet-irreducible filters under inclusion (the spectrum A_*)."""

    algebra: FiniteHilbertAlgebra
    filters: tuple  # masks, sorted by (popcount, mask)

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


def meet_irreducibles(L: FilterLattice) -> SpectrumPoset:
    """Filters that are neither the maximum nor a meet of two larger ones."""
    return SpectrumPoset(algebra=L.algebra, filters=L.spectrum)


def is_meet_prime(L: FilterLattice, F: int) -> bool:
    """F < maximum and G & H <= F forces G <= F or H <= F."""
    if F not in L.filters:
        raise NotInLatticeError(f"mask {F:#x} is not a filter of this algebra")
    if F == L.maximum:
        return False
    for G in L.filters:
        for H in L.filters:
            if (G & H) & ~F == 0 and G & ~F and H & ~F:
                return False
    return True


def depth(A: FiniteHilbertAlgebra) -> int:
    """Maximum chain size in the spectrum; 0 for the trivial algebra."""
    return meet_irreducibles(all_filters(A)).max_chain_size()


def separate(A: FiniteHilbertAlgebra, F: int, a: int) -> int:
    """A meet-irreducible G with F <= G and a not in G.

    Deterministic: the inclusion-maximal candidate, ties broken by least
    bit pattern (the classical proof extends F to a filter maximal among
    those avoiding a).
    """
    if F >> a & 1:
        raise PreconditionError(f"element {a} already in the filter")
    spectrum = meet_irreducibles(all_filters(A))
    candidates = [G for G in spectrum.filters if G & F == F and not G >> a & 1]
    if not candidates:
        raise PreconditionError("no separating meet-irreducible (input not a filter?)")
    maximal = [
        G for G in candidates if not any(H != G and H & G == G for H in candidates)
    ]
    return min(maximal)
