"""The benchmark's own algebra code, written without the library.

It builds the inputs (upset reducts of posets, seeded relabellings) and
checks the library's outputs against definitions: modus-ponens closure
for filters, "maximal among filters avoiding some a" for
meet-irreducibility, and direct evaluation of the d_n terms.  Tables are
lists of rows; subsets are int bit masks, as in the library.
"""

from __future__ import annotations

import hashlib
import json
from itertools import permutations


# ---------------------------------------------------------------------------
# posets and their upset reducts


def leq_from_covers(points: int, covers) -> list:
    """Reflexive-transitive closure of a cover relation, as a bool matrix."""
    leq = [[a == b for b in range(points)] for a in range(points)]
    for a, b in covers:
        leq[a][b] = True
    for m in range(points):
        for a in range(points):
            if leq[a][m]:
                for b in range(points):
                    if leq[m][b]:
                        leq[a][b] = True
    return leq


def poset_canonical_form(leq) -> tuple:
    """Least flattened leq matrix over all relabellings."""
    k = len(leq)
    return min(
        tuple(bool(leq[p[a]][p[b]]) for a in range(k) for b in range(k))
        for p in permutations(range(k))
    )


def is_partial_order(leq) -> bool:
    k = len(leq)
    return all(
        leq[a][a]
        and all(
            not (a != b and leq[a][b] and leq[b][a])
            and all(leq[a][c] for c in range(k) if leq[a][b] and leq[b][c])
            for b in range(k)
        )
        for a in range(k)
    )


def upset_reduct(points: int, covers) -> list:
    """Implication table on the upsets of a poset: U -> V = {x : up(x) & U <= V}."""
    leq = leq_from_covers(points, covers)
    up = [sum(1 << y for y in range(points) if leq[x][y]) for x in range(points)]
    carrier = [
        U
        for U in range(1 << points)
        if all(up[x] & ~U == 0 for x in range(points) if U >> x & 1)
    ]
    index = {U: i for i, U in enumerate(carrier)}
    return [
        [index[sum(1 << x for x in range(points) if up[x] & U & ~V == 0)] for V in carrier]
        for U in carrier
    ]


def relabel(table, perm) -> list:
    """The table with element a renamed perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


# ---------------------------------------------------------------------------
# Hilbert algebra definitions


def top_of(table) -> int:
    return table[0][0]


def is_hilbert(table) -> bool:
    """a->a = 1, K, S and antisymmetry, checked cell by cell."""
    t = table
    n = len(t)
    one = t[0][0]
    return all(
        t[a][a] == one
        and all(
            t[a][t[b][a]] == one
            and not (a != b and t[a][b] == one and t[b][a] == one)
            and all(t[t[a][t[b][c]]][t[t[a][b]][t[a][c]]] == one for c in range(n))
            for b in range(n)
        )
        for a in range(n)
    )


def hilbert_canonical_form(table) -> tuple:
    """Least flattened table over relabellings that fix the top."""
    n = len(table)
    one = top_of(table)
    rest = [x for x in range(n) if x != one]
    best = None
    for images in permutations(rest):
        h = dict(zip(rest, images))
        h[one] = one
        inv = {v: k for k, v in h.items()}
        flat = tuple(h[table[inv[x]][inv[y]]] for x in range(n) for y in range(n))
        if best is None or flat < best:
            best = flat
    return best


def census_digest(tables) -> str:
    """sha256 of one size's emitted tables, in emitted order."""
    doc = json.dumps([[list(r) for r in t] for t in tables], separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def d_value(table, xs) -> int:
    """d_k(x_0..x_k) with d_0 = x_0 and d_k = ((x_k -> d_{k-1}) -> x_k) -> x_k."""
    t = table
    v = xs[0]
    for x in xs[1:]:
        v = t[t[t[x][v]][x]][x]
    return v


def mp_closure(table, X: int) -> int:
    """Least set containing X and 1 closed under modus ponens."""
    t = table
    n = len(t)
    F = X | 1 << top_of(t)
    grown = True
    while grown:
        grown = False
        for a in range(n):
            if F >> a & 1:
                for b in range(n):
                    if F >> t[a][b] & 1 and not F >> b & 1:
                        F |= 1 << b
                        grown = True
    return F


def is_filter(table, F: int) -> bool:
    return mp_closure(table, F) == F


def is_meet_irreducible(table, F: int) -> bool:
    """F is maximal among the filters that avoid some a outside F.

    Every filter strictly above F contains Fg(F | {b}) for some b outside
    F, so such an a exists iff the Fg(F | {b}) share an element outside F.
    In a finite lattice that is meet-irreducibility.
    """
    n = len(table)
    outside = [b for b in range(n) if not F >> b & 1]
    if not outside:
        return False
    common = (1 << n) - 1
    for b in outside:
        common &= mp_closure(table, F | 1 << b)
    return common & ~F != 0


def is_subuniverse(table, S: int) -> bool:
    n = len(table)
    return all(
        S >> table[a][b] & 1
        for a in range(n)
        if S >> a & 1
        for b in range(n)
        if S >> b & 1
    )
