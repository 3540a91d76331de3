"""Slow reference implementations that the tests compare the library
against, and the fan algebras.  Nothing in `src` calls these."""

from functools import reduce
from itertools import product
from operator import and_

from hilbertalg import (
    FiniteHilbertAlgebra,
    all_filters,
    all_posets,
    correspondence_check,
    eval_term,
    fg_closure,
    quotient,
    separate,
)
from hilbertalg.core import axioms_hold, bit, iter_bits, subset_of, term_width
from hilbertalg.depth_terms import _d_value
from hilbertalg.enumeration import _canonical


def fan(m: int) -> FiniteHilbertAlgebra:
    """A top m plus m pairwise incomparable coatoms 0..m-1, with
    c_i -> c_j = c_j for i != j.  Every subset containing the top is a
    filter, so Fi(fan(m)) has 2^m members while the spectrum has m."""
    top = m
    table = [[top if i == j or j == top else j for j in range(m + 1)] for i in range(m + 1)]
    return FiniteHilbertAlgebra.from_table(table)


def capped_fan(m: int) -> FiniteHilbertAlgebra:
    """m pairwise incomparable atoms 0..m-1 under one coatom c = m, top
    m+1.  x -> y is 1 when x = y, y = 1, or y = c and x != 1; otherwise
    y.  Fi(capped_fan(m)) has 2^m + 1 members, the spectrum m + 1 and
    the depth is 2."""
    c, top = m, m + 1

    def arrow(x, y):
        return top if x == y or y == top or (y == c and x != top) else y

    return FiniteHilbertAlgebra.from_table(
        [[arrow(x, y) for y in range(m + 2)] for x in range(m + 2)]
    )


# ---------------------------------------------------------------------------
# filter generation


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
# the lattice and its spectrum


def join(A: FiniteHilbertAlgebra, F: int, G: int) -> int:
    """The join of two filters in Fi(A)."""
    return fg_closure(A, F | G)


def is_meet_prime(L, F: int) -> bool:
    """F < maximum and G & H <= F forces G <= F or H <= F."""
    if F == L.algebra.universe_mask():
        return False
    for G in L.filters:
        for H in L.filters:
            if (G & H) & ~F == 0 and G & ~F and H & ~F:
                return False
    return True


def one_upper_cover_spectrum(A: FiniteHilbertAlgebra) -> tuple:
    """The members of Fi(A) with exactly one upper cover, in lattice order.

    For a filter F the deduction theorem gives Fg(F | {a}) =
    {b : a -> b in F}.  The upper covers of F are the minimal sets among
    these extensions: if G covers F and a is in G - F, then
    F < Fg(F | {a}) <= G.  So F has exactly one upper cover iff the meet
    of its extensions is one of them (a finite family has a single
    minimal member iff it contains its meet).
    """
    out = []
    for F in all_filters(A).filters:
        extensions = {
            subset_of(b for b in range(A.size) if F >> A.arrow[a][b] & 1)
            for a in range(A.size)
            if not F >> a & 1
        }
        if extensions and reduce(and_, extensions) in extensions:
            out.append(F)
    return tuple(out)


# ---------------------------------------------------------------------------
# proof procedure 1


def chain_by_correspondence(A: FiniteHilbertAlgebra, assignment, n: int) -> tuple:
    """The filters of chain_from_counterexample, with each quotient chain
    member pulled back by inverting correspondence_check's map from the
    filters above F onto Fi(A/F), instead of by preimage."""
    if n == 0:
        return (separate(A, bit(A.top), assignment[0]),)
    b = _d_value(A, assignment[:n], n - 1)
    an = assignment[n]
    F0 = separate(A, A.upset_mask(A.arrow[A.arrow[an][b]][an]), an)
    F = fg_closure(A, F0 | bit(an))
    q = quotient(A, F)
    sub = chain_by_correspondence(
        q.algebra, tuple(q.projection[a] for a in assignment[:n]), n - 1
    )
    mapping, ok = correspondence_check(A, F)
    assert ok
    inverse = {image: G for G, image in mapping.items()}
    return (F0,) + tuple(inverse[G] for G in sub)


# ---------------------------------------------------------------------------
# identities


def satisfies_identity_by_eval_term(A: FiniteHilbertAlgebra, t) -> tuple:
    """satisfies_identity with eval_term on every assignment."""
    for v in product(range(A.size), repeat=term_width(t)):
        if eval_term(A, t, v) != A.top:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# generation


def _orders_with_top(n: int):
    """Partial orders on 0..n-1 where n-1 is the maximum."""
    for P in all_posets(n - 1):
        yield tuple(row + (True,) for row in P.leq) + ((False,) * (n - 1) + (True,),)


def _fill_tables(n: int, order):
    """Every table on the order whose forced cells (a <= b gives 1,
    1 -> x = x) are set and whose other cells a -> b lie strictly below
    the top in b's upset."""
    top = n - 1
    table = [[top if order[a][b] else None for b in range(n)] for a in range(n)]
    for b in range(top):
        table[top][b] = b  # 1 -> x = x
    cells = [(a, b) for a in range(top) for b in range(n) if table[a][b] is None]
    domains = [[v for v in range(n) if order[b][v] and v != top] for (a, b) in cells]
    if any(not d for d in domains):
        return
    for choice in product(*domains):
        for (a, b), v in zip(cells, choice):
            table[a][b] = v
        yield table


def scanned_hilbert_classes(n: int) -> list:
    """enumerate_hilbert by scanning candidate tables: fill every table
    over every order with top n-1, keep those passing axioms_hold whose
    flat table is canonical, in ascending order."""
    top = n - 1
    found = []
    for order in _orders_with_top(n):
        for table in _fill_tables(n, order):
            if not axioms_hold(table, n, top):
                continue
            flat = tuple(table[a][b] for a in range(n) for b in range(n))
            if flat == _canonical(flat, n, top):
                found.append(flat)
    found.sort()
    return [
        FiniteHilbertAlgebra.from_table([list(flat[a * n : (a + 1) * n]) for a in range(n)])
        for flat in found
    ]
