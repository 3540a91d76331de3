"""Slow reference implementations that the tests compare the library
against, and the fan algebras.  Nothing in `src` calls these."""

from functools import reduce
import itertools
from itertools import combinations, permutations
from operator import and_

from hilbertalg import (
    FiniteHilbertAlgebra,
    all_filters,
    all_posets,
    correspondence_check,
    eval_term,
    fg_closure,
    heyting_from_poset,
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
from hilbertalg.depth_terms import _d_values, _g
from hilbertalg.enumeration import (
    Poset,
    _canonical,
    _closed_masks,
    _code_relabellers,
    _down_masks,
    _flat_relation,
    _table_relabellers,
)
from hilbertalg.errors import InternalInvariantError, NotAFilterError, RangeError
from hilbertalg.filters import is_implicative_filter
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
    b = _d_values(A, assignment, n - 1)[-1]
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
# the d_n test


def g_table_by_cells(A: FiniteHilbertAlgebra) -> list:
    """g[v][x] = ((x -> v) -> x) -> x, one cell at a time."""
    elements = range(A.size)
    return [[_g(A.arrow, v, x) for x in elements] for v in elements]


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
    """generated_subuniverse as a fixpoint: apply -> to every pair of
    members until a whole round adds nothing."""
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
