"""Slow reference implementations that the tests compare the library
against, and the fan and 2-chain algebras.  Nothing in `src` calls these."""

from functools import reduce
import itertools
from itertools import combinations, permutations
from operator import and_
from typing import Iterator, List, Sequence, Tuple

from hilbertalg import (
    FiniteHilbertAlgebra,
    all_posets,
    correspondence_check,
    eval_term,
    fg_closure,
    heyting_from_poset,
    meet_irreducibles,
    quotient,
    separate,
)
from hilbertalg.core import (
    _BYTE_VALUES,
    ValidationReport,
    _check_entries,
    axioms_hold,
    bit,
    iter_bits,
    subset_of,
    term_width,
)
from hilbertalg.enumeration import (
    Poset,
    _canonical,
    _closed_masks,
    _code_relabellers,
    _down_masks,
    _flat_relation,
    _least_code,
    _table_relabellers,
    _up_masks,
)
from hilbertalg.errors import InternalInvariantError, NotAFilterError, RangeError
from hilbertalg.filters import _by_size, _fg_with, is_implicative_filter
from hilbertalg.quotient import Congruence


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


def two_chains(m: int) -> FiniteHilbertAlgebra:
    """The poset P of m disjoint 2-chains 2i < 2i+1, and its co-principal
    up-sets, closed under U -> V = P - down(U - V), numbered in ascending
    order of mask, so P is the top.  It has 2m + 1 elements, spectrum P
    and 3^m filters, and _count_filters memoises 2^(m+1) - 1 states."""
    full = (1 << 2 * m) - 1
    down = [bit(x) | (bit(x - 1) if x % 2 else 0) for x in range(2 * m)]

    def arrow(U, V):
        return full & ~reduce(int.__or__, (down[x] for x in iter_bits(U & ~V)), 0)

    members = {full} | {full & ~d for d in down}
    grown = members
    while grown:
        grown = {arrow(U, V) for U in members for V in members} - members
        members |= grown
    members = sorted(members)
    index = {U: i for i, U in enumerate(members)}
    return FiniteHilbertAlgebra.from_table(
        [[index[arrow(U, V)] for V in members] for U in members]
    )


def relabelled(A: FiniteHilbertAlgebra, perm) -> FiniteHilbertAlgebra:
    """A with element a renamed perm[a]."""
    table = [[0] * A.size for _ in range(A.size)]
    for a in range(A.size):
        for b in range(A.size):
            table[perm[a]][perm[b]] = perm[A.arrow[a][b]]
    return FiniteHilbertAlgebra.from_table(table)


# ---------------------------------------------------------------------------
# validation


def validate_by_cells(table) -> ValidationReport:
    """validate, scanning S at every cell (a, b, c)."""
    n = _check_entries(table)
    t = table
    top = t[0][0]
    bad = []
    for a in range(n):
        if t[a][a] != top:
            bad.append(("unit", (a,)))
    for a in range(n):
        for b in range(n):
            if t[a][t[b][a]] != top:
                bad.append(("K", (a, b)))
            if a < b and t[a][b] == top and t[b][a] == top:
                bad.append(("antisymmetry", (a, b)))
            for c in range(n):
                lhs = t[a][t[b][c]]
                rhs = t[t[a][b]][t[a][c]]
                if t[lhs][rhs] != top:
                    bad.append(("S", (a, b, c)))
    return ValidationReport(size=n, violations=tuple(bad))


def check_order_by_cells(n: int, leq) -> None:
    """Poset's order check, scanning every cell (a, b, c); raises
    RangeError on the first cell that fails."""
    for a in range(n):
        if not leq[a][a]:
            raise RangeError("leq is not reflexive")
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise RangeError("leq is not antisymmetric")
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise RangeError("leq is not transitive")


# ---------------------------------------------------------------------------
# filter generation


def upset_by_cells(A: FiniteHilbertAlgebra, a: int) -> int:
    """The principal up-set of a, as a mask: every b with a <= b."""
    return subset_of(b for b in range(A.size) if A.leq(a, b))


def mp_closure(A: FiniteHilbertAlgebra, X: int) -> int:
    """fg_closure by iterated modus ponens: add every b with a and a -> b
    in the set until a whole round adds nothing."""
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


def is_mp_closed(A: FiniteHilbertAlgebra, S: int) -> bool:
    """is_implicative_filter by the definition: S contains 1, and b is in
    S whenever a and a -> b are."""
    if not S >> A.top & 1:
        return False
    for a in iter_bits(S):
        row = A.arrow[a]
        for b in range(A.size):
            if S >> row[b] & 1 and not S >> b & 1:
                return False
    return True


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


def lattice_by_extension(A: FiniteHilbertAlgebra) -> tuple:
    """all_filters without the spectrum: Fi(A) in one BFS over one-element
    extensions (_fg_with); every filter other than {1} is reached from a
    smaller one this way."""
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
    return _by_size(found)


def depth_by_pairs(A: FiniteHilbertAlgebra) -> int:
    """depth(A) by the longest chain of Spec(A), each filter scanned
    against every other."""
    return longest_chain_by_pairs(meet_irreducibles(A))


def longest_chain_by_pairs(sets) -> int:
    """The longest chain under inclusion among distinct masks given in
    ascending popcount: best[F] = 1 + the largest best[G] over G < F,
    every pair scanned."""
    best = {}
    for F in sets:  # popcount order: subsets come first
        best[F] = 1 + max(
            (best[G] for G in sets if G != F and G & F == G),
            default=0,
        )
    return max(best.values(), default=0)


def strongly_below(A: FiniteHilbertAlgebra, a: int, b: int) -> bool:
    """a < b and b -> a = a, written a << b (see depth_by_strong_chains)."""
    return a != b and A.arrow[a][b] == A.top and A.arrow[b][a] == a


def depth_by_strong_chains(A: FiniteHilbertAlgebra) -> int:
    """depth(A) from the table alone, with no filter and no d_n ladder:
    the most elements in a chain a_0 << a_1 << ... of elements below 1.

    Proof.  The relation << is transitive.  A embeds in Up(Spec A), where
    b -> a = P - down(b - a) for up-sets a, b of P = Spec A, so a << b
    says P - a = down(b - a).  With b << c as well, down(c - a) =
    down(c - b) | down(b - a) = (P - b) | (P - a) = P - a, so a << c.
    Hence a <<-chain a_0 << ... << a_n below 1 has a_i -> a_j = 1 and
    a_j -> a_i = a_i for i < j; with x -> x = 1, 1 -> x = x and x -> 1
    = 1, the set {a_0, ..., a_n, 1} is a subuniverse, a copy of
    chain_algebra(n + 1).  d_n fails on chain_algebra(n + 1), whose
    depth is n + 1, and an identity that fails in a subalgebra fails in
    A, so depth(A) > n by the main theorem.  Conversely, proof procedure
    2 (subalgebra_from_chain) turns a chain of n + 1 members of Spec A
    into a chain subuniverse a_0 < ... < a_n < 1 with a_j -> a_i = a_i,
    a <<-chain of n + 1 elements.  So depth(A) is the longest <<-chain
    below 1, and A |= d_n = 1 iff chain_algebra(n + 1) is not a
    subalgebra of A.

    Longest path over <<, the elements taken by the size of their
    down-sets: a < b makes down(a) a proper subset of down(b), so every
    a << b comes before b.  O(|A|^2).
    """
    top = A.top
    below = [sum(row[a] == top for row in A.arrow) for a in range(A.size)]
    best = {}
    for b in sorted((a for a in range(A.size) if a != top), key=below.__getitem__):
        best[b] = 1 + max((best[a] for a in best if strongly_below(A, a, b)), default=0)
    return max(best.values(), default=0)


def join(A: FiniteHilbertAlgebra, F: int, G: int) -> int:
    """The join of two filters in Fi(A)."""
    return fg_closure(A, F | G)


def is_meet_prime(L, F: int) -> bool:
    """F < maximum and G & H <= F forces G <= F or H <= F."""
    if F == L[-1]:  # the maximum: L is sorted by size
        return False
    for G in L:
        for H in L:
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
    for F in lattice_by_extension(A):
        extensions = {
            subset_of(b for b in range(A.size) if F >> A.arrow[a][b] & 1)
            for a in range(A.size)
            if not F >> a & 1
        }
        if extensions and reduce(and_, extensions) in extensions:
            out.append(F)
    return tuple(out)


def covers_by_scan(items, leq) -> list:
    """dot.hasse_covers by the definition: every pair (i, j) with item i
    strictly below item j, tested against every third item."""
    n = len(items)
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq(items[i], items[j]) or leq(items[j], items[i]):
                continue
            between = any(
                k != i
                and k != j
                and leq(items[i], items[k])
                and leq(items[k], items[j])
                and not leq(items[k], items[i])
                and not leq(items[j], items[k])
                for k in range(n)
            )
            if not between:
                covers.append((i, j))
    return covers


# ---------------------------------------------------------------------------
# quotients


def theta_by_cells(A: FiniteHilbertAlgebra, F: int) -> Congruence:
    """quotient.theta with the relation built as an n x n matrix of bools
    and checked cell by cell."""
    if not is_implicative_filter(A, F):
        raise NotAFilterError(f"mask {F:#x} is not an implicative filter")
    n = A.size
    related = [
        [F >> A.arrow[a][b] & 1 and F >> A.arrow[b][a] & 1 for b in range(n)]
        for a in range(n)
    ]
    class_of = [-1] * n
    blocks = []
    reps = []  # the element that opened each block, its least member
    for a in range(n):
        if class_of[a] >= 0:
            continue
        members = [b for b in range(n) if related[a][b]]
        idx = len(blocks)
        for b in members:
            class_of[b] = idx
        blocks.append(sum(bit(b) for b in members))
        reps.append(a)
    _assert_congruence_by_cells(A, related, class_of, reps)
    return Congruence(blocks=tuple(blocks), class_of=tuple(class_of))


def _assert_congruence_by_cells(A, related, class_of, reps):
    n = A.size
    for a in range(n):
        if not related[a][a]:
            raise InternalInvariantError("theta_F is not reflexive")
        for b in range(n):
            if related[a][b] != related[b][a]:
                raise InternalInvariantError("theta_F is not symmetric")
            if related[a][b] and class_of[a] != class_of[b]:
                raise InternalInvariantError("theta_F is not transitive")
    # Compatibility: a ~ a2 and b ~ b2 imply class(a->b) == class(a2->b2).
    # It suffices to check class(a->b) == class(rep(a)->rep(b)) for all a, b,
    # where rep(a) = reps[class(a)].  That is the case a2 = rep(a),
    # b2 = rep(b) of the full check, since rep(a) ~ a.  Conversely, it gives
    # the full check: class_of is a function, so a ~ a2 means
    # rep(a) = rep(a2), and both sides equal class(rep(a)->rep(b)).
    # Both sides are compared as byte strings over all (a, b), built with
    # bytes.translate.  Row a of the right side depends on a only through
    # rep(a), so it is built once per block.
    rep = bytes(map(reps.__getitem__, class_of))
    pad = _BYTE_VALUES[n:]
    to_class = bytes(class_of) + pad
    rep_rows = [rep.translate(bytes(A.arrow[r]) + pad) for r in reps]
    lhs = b"".join(map(bytes, A.arrow))  # a->b
    rhs = b"".join(map(rep_rows.__getitem__, class_of))  # rep(a)->rep(b)
    if lhs.translate(to_class) != rhs.translate(to_class):
        raise InternalInvariantError("theta_F not arrow-compatible")


# ---------------------------------------------------------------------------
# proof procedure 1


def chain_by_correspondence(A: FiniteHilbertAlgebra, assignment, n: int) -> tuple:
    """The filters of chain_from_counterexample by the proof's route:
    recurse in the quotient algebra A/F, and pull each member of the
    shorter chain back by inverting correspondence_check's map from the
    filters above F onto Fi(A/F)."""
    if n == 0:
        return (separate(A, bit(A.top), assignment[0]),)
    b = d_values_by_cells(A, assignment[:n])[-1]
    an = assignment[n]
    F0 = separate(A, upset_by_cells(A, A.arrow[A.arrow[an][b]][an]), an)
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
# the d_n test


def g_by_cells(A: FiniteHilbertAlgebra, v: int, x: int) -> int:
    """g(v, x) = ((x -> v) -> x) -> x, one step of d_{k+1} = g(d_k, x_{k+1})."""
    arrow = A.arrow
    return arrow[arrow[arrow[x][v]][x]][x]


def g_table_by_cells(A: FiniteHilbertAlgebra) -> list:
    """g[v][x] = g(v, x), one cell at a time."""
    elements = range(A.size)
    return [[g_by_cells(A, v, x) for x in elements] for v in elements]


def d_values_by_cells(A: FiniteHilbertAlgebra, assignment) -> list:
    """The values of d_0..d_n under an assignment of x_0..x_n, by
    g_by_cells."""
    values = [assignment[0]]
    for x in assignment[1:]:
        values.append(g_by_cells(A, values[-1], x))
    return values


def failure_sets_by_definition(A: FiniteHilbertAlgebra, steps: int) -> list:
    """T_0..T_steps from T_0 = A - {1} and T_{j+1} = {v : g(v, x) in T_j
    for some x}, over the table above."""
    values = [set(row) for row in g_table_by_cells(A)]
    sets = [A.universe_mask() & ~bit(A.top)]
    for _ in range(steps):
        target = sets[-1]
        sets.append(
            subset_of(v for v in range(A.size) if any(target >> w & 1 for w in values[v]))
        )
    return sets


# ---------------------------------------------------------------------------
# identities


def satisfies_identity_by_eval_term(A: FiniteHilbertAlgebra, t) -> tuple:
    """satisfies_identity with eval_term on every assignment."""
    for v in itertools.product(range(A.size), repeat=term_width(t)):
        if eval_term(A, t, v) != A.top:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# subalgebras and products


def subalgebra(A: FiniteHilbertAlgebra, S: int) -> FiniteHilbertAlgebra:
    """The subuniverse S of A as an algebra, its members renumbered in
    ascending order."""
    members = list(iter_bits(S))
    index = {a: i for i, a in enumerate(members)}
    return FiniteHilbertAlgebra.from_table(
        [[index[A.arrow[a][b]] for b in members] for a in members]
    )


def product(A: FiniteHilbertAlgebra, B: FiniteHilbertAlgebra) -> FiniteHilbertAlgebra:
    """A x B with -> taken in each coordinate; (a, b) is element a*|B| + b."""
    m = B.size
    return FiniteHilbertAlgebra.from_table(
        [
            [A.arrow[a][c] * m + B.arrow[b][d] for c in range(A.size) for d in range(m)]
            for a in range(A.size)
            for b in range(m)
        ]
    )


# ---------------------------------------------------------------------------
# subuniverses


def closure_by_rounds(A: FiniteHilbertAlgebra, X: int) -> int:
    """The least subset containing X and 1 that is closed under ->, as a
    fixpoint: apply -> to every pair of members until a whole round adds
    nothing."""
    closed = X | bit(A.top)
    changed = True
    while changed:
        changed = False
        members = list(iter_bits(closed))
        for a in members:
            row = A.arrow[a]
            for b in members:
                if not closed >> row[b] & 1:
                    closed |= bit(row[b])
                    changed = True
    return closed


# ---------------------------------------------------------------------------
# isomorphism


def find_isomorphism(A: FiniteHilbertAlgebra, B: FiniteHilbertAlgebra):
    """A permutation h with h(a -> b) = h(a) -> h(b), or None.

    Exhaustive over the (n-1)! permutations mapping top to top.
    """
    if A.size != B.size:
        return None
    n = A.size
    rest_a = [x for x in range(n) if x != A.top]
    rest_b = [y for y in range(n) if y != B.top]
    for images in permutations(rest_b):
        h = [0] * n
        h[A.top] = B.top
        for x, y in zip(rest_a, images):
            h[x] = y
        if all(
            h[A.arrow[a][b]] == B.arrow[h[a]][h[b]]
            for a in range(n)
            for b in range(n)
        ):
            return tuple(h)
    return None


# ---------------------------------------------------------------------------
# Heyting algebras of upsets


def longest_chain_by_leq(P: Poset) -> int:
    """Poset.longest_chain by leq: the points taken by the size of their
    down-sets, best[x] = 1 + the largest best[y] over y < x."""
    best = [0] * P.size
    order = sorted(range(P.size), key=lambda x: sum(P.leq[y][x] for y in range(P.size)))
    for x in order:
        below = [best[y] for y in range(P.size) if P.leq[y][x] and y != x]
        best[x] = 1 + max(below, default=0)
    return max(best, default=0)


def heyting_by_cells(P: Poset) -> tuple:
    """The carrier and arrow table of heyting_from_poset, one cell at a
    time: the upsets by closed_masks_by_filter, and U -> V the set of
    points x with upset(x) & U <= V, scanned over every point."""
    ups = [P.upset_mask(x) for x in range(P.size)]
    carrier = closed_masks_by_filter(ups)
    index = {mask: i for i, mask in enumerate(carrier)}
    arrow = tuple(
        tuple(
            index[sum(bit(x) for x in range(P.size) if ups[x] & U & ~V == 0)]
            for V in carrier
        )
        for U in carrier
    )
    return tuple(carrier), arrow


# ---------------------------------------------------------------------------
# generation


def closed_masks_by_filter(principal) -> list:
    """_closed_masks by filtering all 2^k masks: the m, ascending, with
    principal[x] inside m for every x in m."""
    return [
        mask
        for mask in range(1 << len(principal))
        if all(principal[x] & ~mask == 0 for x in iter_bits(mask))
    ]


def _natural_orders(k: int):
    """Orders on 0..k-1 in which a below b implies a < b, as the tuple of
    principal down-set masks.  Each is an order on 0..k-2 with the new
    maximal point k-1 placed above one of its down-sets."""
    if k == 0:
        yield ()
        return
    for down in _natural_orders(k - 1):
        for below in _closed_masks(down):
            yield down + (below | bit(k - 1),)


def posets_by_relabelling(k: int) -> list:
    """all_posets(k, up_to_iso=True) by relabelling every natural order by
    all k! permutations and keeping each class's least code."""
    pairs = list(combinations(range(k), 2))
    codes = set()
    for down in _natural_orders(k):
        rel = [
            [1 if down[y] >> x & 1 else 2 if down[x] >> y & 1 else 0 for y in range(k)]
            for x in range(k)
        ]
        codes.add(min(tuple(rel[q[a]][q[b]] for a, b in pairs) for q in permutations(range(k))))
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


def least_code_by_scan(down, relabellers) -> tuple:
    """The least code of the poset with principal down-set masks `down`
    over the relabellers of all k! permutations (_code_relabellers(k))."""
    flat = _flat_relation(down)
    return min(relabel(flat) for relabel in relabellers)


def scanned_class_codes(k: int) -> list:
    """The least code of each class of k-point posets, ascending: every
    class representative on k - 1 points gets a new maximal point above
    each of its down-sets, and each candidate is keyed by its least code
    over all k! relabellings."""
    if k == 0:
        return [()]
    relabellers = _code_relabellers(k)
    codes = set()
    for code in scanned_class_codes(k - 1):
        down = _down_masks(k - 1, code)
        for below in _closed_masks(down):
            codes.add(least_code_by_scan(down + (below | bit(k - 1),), relabellers))
    return sorted(codes)


def unpruned_next_classes(classes: tuple) -> tuple:
    """enumeration._next_classes without its twin rule: every down-set of
    every representative whose new point passes the largest-down-set
    rule is keyed by _least_code."""
    k = len(classes[0][1]) + 1
    codes = set()
    for _, down in classes:
        up = _up_masks(down)
        tops = [(y, down[y].bit_count()) for y in range(k - 1) if up[y] == 1 << y]
        for below in _closed_masks(down):
            size = below.bit_count() + 1
            if all(below >> y & 1 or s <= size for y, s in tops):
                codes.add(_least_code(down + (below | bit(k - 1),)))
    return tuple((code, _down_masks(k, code)) for code in sorted(codes))


def canonical_by_scan(flat: tuple, n: int, top: int) -> tuple:
    """The least relabelling of a flat n*n table over the permutations
    fixing top, each table rebuilt cell by cell."""
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
    for choice in itertools.product(*domains):
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
            if flat == canonical_by_scan(flat, n, top):
                found.append(flat)
    found.sort()
    return [
        FiniteHilbertAlgebra.from_table([list(flat[a * n : (a + 1) * n]) for a in range(n)])
        for flat in found
    ]


def backtracked_hilbert_classes(n: int) -> list:
    """The canonical flat tables of the n-element Hilbert algebras, in
    ascending order, by cell-by-cell backtracking over every order with
    top n-1.

    The order fixes a -> b = 1 for a <= b and 1 -> x = x.  Every other
    cell a -> b takes a value strictly below the top in b's upset, as K
    requires (b <= a -> b), so K and antisymmetry hold by construction.
    After each cell, every S instance whose cells are all set is checked
    as x -> (y -> z) <= (x -> y) -> (x -> z); instances with a top
    index hold trivially.  Each complete table is canonicalised by
    canonical_by_scan.
    """
    top = n - 1
    found = set()
    for order in _orders_with_top(n):
        t = [[top if order[a][b] else None for b in range(n)] for a in range(n)]
        t[top] = list(range(n))
        cells = [(a, b) for a in range(top) for b in range(n) if t[a][b] is None]
        domains = [[v for v in range(top) if order[b][v]] for _, b in cells]

        def s_holds():
            for x in range(top):
                tx = t[x]
                for y in range(top):
                    r = tx[y]
                    if r is None:
                        continue
                    tr, ty = t[r], t[y]
                    for z in range(top):
                        p, s = ty[z], tx[z]
                        if p is None or s is None:
                            continue
                        q, m = tx[p], tr[s]
                        if q is not None and m is not None and not order[q][m]:
                            return False
            return True

        def fill(i):
            if i == len(cells):
                flat = tuple(v for row in t for v in row)
                found.add(canonical_by_scan(flat, n, top))
                return
            a, b = cells[i]
            for v in domains[i]:
                t[a][b] = v
                if s_holds():
                    fill(i + 1)
            t[a][b] = None

        fill(0)
    return sorted(found)


def _extend_closed(arrow, closed: int, members: list, a: int, limit: int):
    """Close the closed set `closed` (listed by `members`) plus a under
    ->, or return None once the result has more than `limit` elements.
    Each element that joins is paired, both ways, only with the members
    that joined before it and with itself."""
    if closed >> a & 1:
        return closed, members
    members = members + [a]
    closed |= 1 << a
    done = len(members) - 1
    while done < len(members):
        if len(members) > limit:
            return None
        x = members[done]
        row = arrow[x]
        done += 1
        for y in members[:done]:
            for v in (row[y], arrow[y][x]):
                if not closed >> v & 1:
                    closed |= 1 << v
                    members.append(v)
    return closed, members


def closed_subsets(U: FiniteHilbertAlgebra, n: int) -> list:
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
            grown = _extend_closed(U.arrow, S, members, a, n)
            if grown is not None and grown[0] not in seen:
                seen.add(grown[0])
                frontier.append(grown)
    return [S for S in seen if S.bit_count() == n]


def closure_hilbert_classes(n: int) -> list:
    """enumerate_hilbert from the definition of Hilbert algebras as the
    ->-subreducts of Heyting algebras.

    A finite A embeds into the upset algebra Up(Spec A) by
    a |-> {M in Spec A : a in M} (Diego 1966), and the spectrum has at
    most n - 1 points when |A| = n: filters._build_spectrum's column
    test gives at most one member per a != 1.  So every n-element class
    is an n-element ->-closed subset of the reduct of Up(P) for some
    poset P with k < n points, one P per isomorphism class.  Each such
    subset is relabelled with its top at n-1 and keyed by _canonical.
    """
    tables = set()
    for k in range(n):
        for P in all_posets(k, up_to_iso=True):
            _, U = heyting_from_poset(P)
            for S in closed_subsets(U, n):
                members = list(iter_bits(S))  # U's top is its last element
                index = {x: i for i, x in enumerate(members)}
                tables.add(bytes(index[U.arrow[x][y]] for x in members for y in members))
    relabellers = _table_relabellers(n)
    found = {_canonical(flat, relabellers) for flat in tables}
    return [
        FiniteHilbertAlgebra.from_table([list(flat[a * n : (a + 1) * n]) for a in range(n)])
        for flat in sorted(found)
    ]


# ---------------------------------------------------------------------------
# growth by one new minimal element: a second generator that shares only
# _canonical (and its relabellers) with enumerate_hilbert


def _grow(B: Sequence[int], m: int) -> Iterator[bytes]:
    """The flat tables of the (m+1)-element Hilbert algebras A that have
    a minimal element z with A - {z} equal to the m-element algebra B
    (a flat table with top m-1).

    In A, B's elements keep their labels, B's top moves to n-1 = m and z
    is n-2.  Only row z, f(x) = z -> x, and column z, c(x) = x -> z, are
    new.  Every rule below holds in every such A, so no A is lost:
      - f(x) is in B and x <= f(x) for x in B.  K gives x <= z -> x; if
        z -> x were z, then x <= z, so x = z as z is minimal.
      - f is an idempotent homomorphism of B.  S holds with equality
        (Diego 1966), so z->(x->y) = (z->x)->(z->y), and
        z->(z->x) = (z->z)->(z->x) = 1 -> f(x) = f(x).
      - c(x) >= z, and c(x) != 1 for x != 1.  K gives z <= x -> z, and
        x -> z = 1 would put x <= z, so x = z.
    The rules are checked as cells are set, on the triples that read
    them, and together they are the axioms for the triples that meet z
    (the others lie in B, which is an algebra), so every table yielded
    is a Hilbert algebra:
      - unit: z -> z = 1 is set; antisymmetry with z is c(x) != 1;
      - K: x->(z->x) = 1 is x <= f(x), and z->(x->z) = 1 is c(x) >= z;
      - S at (z, x, y) is the homomorphism law, at (z, z, y)
        idempotence, at (z, x, z) K again; S at (x, z, z) and every
        instance with 1 in some position hold in any table with
        a -> a = a -> 1 = 1 and 1 -> a = a;
      - S at (x, z, y), x->f(y) = c(x)->(x->y), reads only f and c(x),
        so it filters each cell's values once f is set;
      - S at (x, y, z), x->c(y) = (x->y)->c(x), is checked for each
        pair once both cells are set.
    B's elements are filled from the top down, each after every element
    above it.  As x->y >= y, the cells a pair reads are then set when
    the pair is checked.

    Once row z is set, the search stops unless z has a largest up-set
    among the minimal elements of A, |up(z)| being the elements w of B
    with f(w) = 1, plus z and 1.  This still meets every class: delete
    from any n-element algebra a minimal element with a largest up-set,
    and what remains is a subalgebra isomorphic to a representative B,
    so growing B meets the algebra with z in that role.  The other
    minimal elements of A are the minimal elements w of B that z is not
    below (f(w) != 1), and each keeps its up-set in B, since w <= z
    would be c(w) = 1.
    """
    n = m + 1
    z, top = m - 1, m
    labels = list(range(z)) + [top]  # B's element b is labels[b] in A
    t = [[top] * n for _ in range(n)]
    for a, la in enumerate(labels):
        row = t[la]
        for b, lb in enumerate(labels):
            row[lb] = labels[B[a * m + b]]
    t[top][z] = z
    f = t[z]  # z -> x, filled in place; z -> z = z -> 1 = 1 already
    up = [[y for y in labels if t[x][y] == top] for x in range(z)]
    order = sorted(range(z), key=lambda x: len(up[x]))
    minimal = [
        (w, len(up[w]))
        for w in range(z)
        if not any(y != w and t[y][w] == top for y in range(z))
    ]

    def columns(i, values, done):
        if i == len(order):
            yield bytes(v for row in t for v in row)
            return
        x = order[i]
        tx = t[x]
        done = done + [x]
        for w in values[i]:
            tx[z] = w
            if all(
                tx[t[y][z]] == t[tx[y]][w] and t[y][w] == t[t[y][x]][t[y][z]]
                for y in done
            ):
                yield from columns(i + 1, values, done)

    def rows(i, done):
        if i == len(order):
            above = [z] + [w for w in order if f[w] == top]
            if any(f[w] != top and size > len(above) + 1 for w, size in minimal):
                return
            values = [
                [w for w in above if all(t[x][f[y]] == t[w][t[x][y]] for y in order)]
                for x in order
            ]
            if all(values):
                yield from columns(0, values, [])
            return
        x = order[i]
        tx = t[x]
        done = done + [x]
        for w in up[x]:
            if w != x and f[w] != w:
                continue
            f[x] = w
            tw = t[w]
            if all(f[tx[y]] == tw[f[y]] and f[t[y][x]] == t[f[y]][w] for y in done):
                yield from rows(i + 1, done)

    yield from rows(0, [])


def _table_levels(n: int) -> List[Tuple[tuple, ...]]:
    """The canonical flat tables of the Hilbert algebras of each size
    1..n, each level ascending and grown from the level below."""
    levels = [((0,),)]
    for size in range(2, n + 1):
        relabellers = _table_relabellers(size)
        found = set()
        for B in levels[-1]:
            for flat in _grow(B, size - 1):
                found.add(_canonical(flat, relabellers))
        levels.append(tuple(sorted(found)))
    return levels
