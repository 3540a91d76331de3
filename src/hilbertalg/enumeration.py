"""Isomorph-free exhaustive generation of finite Hilbert algebras, plus
finite Heyting algebras built as upset algebras of posets.

A finite Hilbert algebra A embeds in the upset algebra Up(Spec A) by
a |-> {M in Spec A : a in M} (Diego 1966).  By the column test in
filters._build_spectrum each point M is A - down(a_M) for some
a_M != 1, so Spec A has fewer than n = |A| points, and a_M goes to the
co-principal up-set Spec A - down(M): a_M is in M' iff a_M is not
below a_M', iff M' is not inside M.  So every n-element class is an
n-element ->-closed set of up-sets of a poset P with k < n points that
holds all of P's co-principal up-sets, where U -> V = P - down(U - V).
_tables(n, sizes) walks the classes of such posets level by level,
closes P and its co-principal up-sets under ->, and grows the closed
sets of at most n members above that closure one up-set at a time
(_closed_sets), so one walk serves every size up to n.  A set's table,
its members numbered in ascending order so that P is the top, is built
only for a size in `sizes`: verify --enumerate N files every size up to
N, and enumerate_hilbert(n) size n alone.  Each distinct table is keyed
by its canonical form (the lexicographically least table over the
permutations fixing the top); the classes come out in ascending order.
_tables alone bounds the size: past _MAX_ENUM_CAP, the largest size
measured to finish, it raises when called, before anything is built.

Posets are grown by a new maximal point and follow the orderly rule
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998):
a candidate is dropped as soon as its new point cannot be the one
chosen for deletion, a maximal point with a largest down-set.  Of the
candidates that a swap of two twin points of the parent maps to one
another, only one is kept (the parent-automorphism step, restricted to
twins; _next_classes has the argument).  Each poset left is keyed by its
least code (_least_code).

For all_posets the least poset codes of each number of points are
cached, with the down-set masks of the posets they code, so each level
is built once per process.  Generation keeps nothing: each call walks
its own poset levels and builds its own canonical tables, so its cost
does not depend on what ran before it.  enumerate_hilbert and
all_posets build new, validated objects on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress, permutations
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import MAX_UNIVERSE, FiniteHilbertAlgebra, _Frozen, bit, iter_bits, subset_of
from .errors import RangeError, SizeLimitError

# The largest size the generator is measured to finish: size 7 takes
# about 0.7 s and size 8 about 40 s, 4,933 tables keyed over 7!
# relabellings each (Python 3.11, one core).  Size 9 would key each table
# over 8! relabellings.
_MAX_ENUM_CAP = 8


# ---------------------------------------------------------------------------
# posets


@dataclass(init=False, repr=False, eq=False)
class Poset(_Frozen):
    """A partial order on 0..size-1, leq[a][b] being a <= b; checked on
    construction."""

    size: int
    leq: tuple  # tuple of row tuples of bool

    def __init__(self, size: int, leq):
        self.__dict__.update(size=size, leq=tuple(map(tuple, leq)))
        self.__post_init__()

    def __post_init__(self):
        """Check leq and keep each point's up-set mask in __dict__ as _up,
        not a field, so ==, hash and repr do not see it.  Row a holds iff
        a <= a and each b >= a is not <= a unless b = a, and has its
        up-set inside a's.  The b are taken in ascending order, so the
        message is the one a scan of every cell (a, b, c) raises first."""
        n, leq = self.size, self.leq
        if len(leq) != n or any(len(row) != n for row in leq):
            raise RangeError(f"leq must have {n} rows of {n} entries")
        r = range(n)
        up = [subset_of(compress(r, row)) for row in leq]
        for a in r:
            ua = up[a]
            if not ua >> a & 1:
                raise RangeError("leq is not reflexive")
            for b in compress(r, leq[a]):
                if b != a and up[b] >> a & 1:
                    raise RangeError("leq is not antisymmetric")
                if up[b] & ~ua:
                    raise RangeError("leq is not transitive")
        self.__dict__["_up"] = up

    def upset_mask(self, x: int) -> int:
        return self._up[x]

    def longest_chain(self) -> int:
        """Maximum number of elements in a chain, 0 for the empty poset:
        the longest chain of principal up-sets, as x <= y iff the up-set
        of y is inside that of x."""
        return _longest_chain(sorted(self._up, key=int.bit_count))


def _closed_masks(principal, cap: Optional[int] = None) -> List[int]:
    """Masks m, ascending, with principal[x] inside m for every x in m,
    where principal[x] is the principal down-set (or up-set) of x in a
    poset.

    The closed sets are the unions of principal sets, listed directly
    rather than by filtering all 2^k masks.  The points are taken in
    order of decreasing principal-set size, and each set m listed so far
    that lacks x gets a copy m | principal[x].  If y is in principal[x]
    and y != x, then principal[y] is strictly inside principal[x], so y
    comes later: adding a point's principal set forces only points not
    yet decided.  So a point left out stays out, every closed set comes
    from exactly one sequence of choices (take x exactly when x is in
    it), and no set is listed twice.

    Given a cap, SizeLimitError is raised once more than cap sets are
    listed.  The list only grows, so that happens exactly when there are
    more than cap closed sets, and before the rest are listed.
    """
    masks = [0]
    for x in sorted(range(len(principal)), key=lambda x: -principal[x].bit_count()):
        p = principal[x]
        masks += [m | p for m in masks if not m >> x & 1]
        if cap is not None and len(masks) > cap:
            raise SizeLimitError(f"more than {cap} closed sets: universe size exceeds cap {cap}")
    return sorted(masks)


def _longest_chain(sets: Sequence[int]) -> int:
    """Most members of a chain under inclusion among distinct masks given
    in ascending popcount, so each set's subsets come first; 0 for none."""
    best = []
    for F in sets:
        best.append(1 + max((b for G, b in zip(sets, best) if G & F == G), default=0))
    return max(best, default=0)


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


def _up_masks(down) -> list:
    """The principal up-set masks of the poset with principal down-set
    masks `down`: y is above x iff x is in down[y].  Given the up-sets,
    it gives the down-sets, those of the dual order.  iter_bits is
    inlined, as this is a large part of _least_code on few points."""
    up = [0] * len(down)
    for y, d in enumerate(down):
        while d:
            low = d & -d
            up[low.bit_length() - 1] |= 1 << y
            d ^= low
    return up


def _down_sets(down) -> list:
    """below[X], the down-set of each set X of points (a mask indexing
    the list), from the principal down-set masks `down`: below[X] is
    below[X - {x}] | down[x] for the least point x of X, 2^k steps.
    Only for generation, where k < n <= 8."""
    below = [0] * (1 << len(down))
    for X in range(1, len(below)):
        low = X & -X
        below[X] = below[X ^ low] | down[low.bit_length() - 1]
    return below


def _least_code(down) -> tuple:
    """The least code over all labellings of the poset with principal
    down-set masks `down` (see all_posets), found by partition refinement
    (McKay, "Practical graph isomorphism", 1981).

    The pairs (a, b) come in lexicographic order, so the code is row 0,
    then row 1, and so on, where row a lists the values at (a, b) for
    b > a.  Labels are given one at a time.  A state is an ordered list of
    cells, masks of the points not yet labelled, each cell holding the
    points with one relation to every labelled point; the labels still
    free are dealt to the cells in order.  Label a goes to a point x of
    the first cell.  Within each cell, the least row a puts the points
    incomparable to x (value 0) first, then those above x (1), then those
    below x (2), so choosing x fixes row a and splits each cell into
    those three, in that order.  Every labelling whose code starts with
    the least rows 0..a-1 agrees with some state kept at level a, and
    the labellings that agree with one state differ on row a only
    through x and the order within cells.  So the least row a over all
    of them is the least over the states and their choices of x, and
    keeping just the states that reach it, level by level, is exact.
    Only the cells decide what a state can still reach, so states with
    equal cells are kept once.  Points with equal strict up-sets and
    down-sets (twins) are incomparable and lie in one cell while both
    are unlabelled, and swapping them is an automorphism that fixes the
    labelled points and every cell; so only one of each set of twins in
    the first cell is tried.

    Choices are compared by counts, not rows.  Every state kept at level
    a has the same ordered cell sizes: at level 0 there is one state,
    and the cells of a state kept at level a + 1 are the non-empty
    parts, in order, of cells of the sizes shared at level a, with the
    sizes the shared least row a gives them.  So every choice at level
    a writes row a as one block 0^c0 1^c1 2^c2 per cell (the first cell
    less x), the block lengths are shared, and of two blocks of one
    length the smaller is the one with the larger (c0, c1).  A choice is
    keyed by its (c0, c1) per cell, and the largest key gives the least
    row.  Cells are built only for the choices that tie for it, and the
    row is written out once per level, from the first of them.
    """
    k = len(down)
    up = _up_masks(down)
    strict = [(down[x] ^ 1 << x, up[x] ^ 1 << x) for x in range(k)]
    code = []
    states = {((1 << k) - 1,)}
    for _ in range(k - 1):
        best, ties = None, []
        for state in states:
            tried = set()
            for x in iter_bits(state[0]):
                twin = strict[x]
                if twin in tried:
                    continue
                tried.add(twin)
                above, other = twin[1], ~(up[x] | down[x])
                key = []
                for cell in state:
                    key.append((cell & other).bit_count())
                    key.append((cell & above).bit_count())
                if best is None or key > best:
                    best, ties = key, [(state, x)]
                elif key == best:
                    ties.append((state, x))
        state, x = ties[0]
        below = strict[x][0]
        for cell, c0, c1 in zip(state, best[::2], best[1::2]):
            code += [0] * c0 + [1] * c1 + [2] * (cell & below).bit_count()
        states = set()
        for state, x in ties:
            below, above = strict[x]
            other = ~(up[x] | down[x])
            cells = []
            for cell in state:
                for part in (cell & other, cell & above, cell & below):
                    if part:
                        cells.append(part)
            states.add(tuple(cells))
    return tuple(code)


def _next_classes(classes: tuple) -> Tuple[Tuple[tuple, tuple], ...]:
    """The least code of each isomorphism class of k-point posets, with
    the principal down-set masks of the poset it codes, as (code, down)
    pairs in ascending code order, from the same pairs for k-1 points.

    Every class is reached by a representative on k-1 points plus a new
    maximal point k-1 above one of its down-sets, where the new point's
    principal down-set is a largest among the maximal points: delete
    from any k-poset a maximal point m with a largest down-set, and the
    rest is isomorphic to a representative, with m above the image of
    its down-set and the other maximal points keeping theirs.  Candidates
    whose new point has a smaller down-set than a maximal point outside
    it are skipped.

    So are down-sets that hold a twin y of the representative but not
    the twin x just before it in label order (the parent-automorphism
    step of canonical augmentation, restricted to twin swaps).  Twins,
    points with equal strict up-sets and down-sets, are incomparable,
    since if x < y then y is in x's strict up-set but not in its own; so
    swapping two twins is an automorphism of the representative.  It
    maps down-sets to down-sets and maximal points to maximal points and
    keeps every down-set's size, so it maps a candidate that passes the
    rule above to one that passes, with an isomorphic extension.  The
    swaps generate the full symmetric group on each twin class, and
    each orbit of down-sets has exactly one member holding, in each
    class, an initial run of its points in label order: that member is
    kept and the rest are skipped.  So every class keeps a candidate
    and the codes are unchanged.  Each candidate is keyed by
    _least_code, and each class's code is decoded once.
    """
    k = len(classes[0][1]) + 1
    codes = set()
    for _, down in classes:
        up = _up_masks(down)
        tops = [(y, down[y].bit_count()) for y in range(k - 1) if up[y] == 1 << y]
        last, twins = {}, []  # twins: (x, y), y's twin just before it
        for y in range(k - 1):
            strict = (down[y] ^ 1 << y, up[y] ^ 1 << y)
            if strict in last:
                twins.append((last[strict], y))
            last[strict] = y
        for below in _closed_masks(down):
            if any(below >> y & 1 and not below >> x & 1 for x, y in twins):
                continue  # a swap of twins maps it to a kept down-set
            size = below.bit_count() + 1
            if all(below >> y & 1 or s <= size for y, s in tops):
                codes.add(_least_code(down + (below | bit(k - 1),)))
    return tuple((code, _down_masks(k, code)) for code in sorted(codes))


_NO_POINTS = (((), ()),)  # the one poset on no points


@cache
def _class_codes(k: int) -> Tuple[Tuple[tuple, tuple], ...]:
    """_next_classes' pairs for k points.  Cached for all_posets: each
    level is built once per process from the one below."""
    return _NO_POINTS if k == 0 else _next_classes(_class_codes(k - 1))


def all_posets(k: int, up_to_iso: bool = False) -> List[Poset]:
    """All posets on k labeled elements (or one per isomorphism class).

    A poset's code lists, for each pair a < b in lexicographic order, 0 if
    a and b are incomparable, 1 if a is below b and 2 if b is below a.
    Posets come in ascending code order, and a class is represented by
    its least code (_class_codes).  Every labelled poset is a relabelling
    of its class's representative, so relabelling those reaches every
    code.
    """
    if not isinstance(k, int):
        raise RangeError("number of points must be an int")
    if k < 0:
        raise RangeError("number of points must be at least 0")
    classes = _class_codes(k)
    if up_to_iso:
        downs = [down for _, down in classes]
    else:
        relabellers = _code_relabellers(k)
        flats = [_flat_relation(down) for _, down in classes]
        codes = sorted({relabel(flat) for flat in flats for relabel in relabellers})
        downs = [_down_masks(k, code) for code in codes]
    rows = {}  # up-set mask -> row of leq, one tuple per distinct mask
    out = []
    for down in downs:
        leq = []
        for up in _up_masks(down):
            row = rows.get(up)
            if row is None:
                row = rows[up] = tuple(bool(up >> b & 1) for b in range(k))
            leq.append(row)
        out.append(Poset(size=k, leq=tuple(leq)))
    return out


# ---------------------------------------------------------------------------
# Heyting algebras of upsets


@dataclass(init=False, repr=False, eq=False)
class HeytingAlgebra(_Frozen):
    """Upsets of a poset: meet/join are intersection/union of masks,
    arrow is the relative pseudo-complement."""

    poset: Poset
    carrier: tuple  # upset masks, ascending
    arrow: tuple  # index table
    top: int
    bottom: int

    def __init__(
        self, poset: Poset, carrier: tuple, arrow: tuple, top: int, bottom: int
    ):
        self.__dict__.update(
            poset=poset, carrier=carrier, arrow=arrow, top=top, bottom=bottom
        )


def heyting_from_poset(P: Poset) -> Tuple[HeytingAlgebra, FiniteHilbertAlgebra]:
    """The upset algebra of P and its implication reduct.

    U -> V is the set of x with upset(x) & U <= V, that is, the points
    not below any point of U - V: P minus the down-set of U - V.  Each
    cell ORs the principal down-sets of U - V, computed once, so the cost
    is polynomial in the points and the up-sets (a k-chain has k + 1).
    A poset with more than MAX_UNIVERSE up-sets is refused while they are
    listed, before any cell is filled.
    """
    ups = P._up
    downs = _up_masks(ups)
    carrier = _closed_masks(ups, MAX_UNIVERSE)
    index = {mask: i for i, mask in enumerate(carrier)}
    k = len(carrier)
    full = (1 << P.size) - 1
    table = []
    for U in carrier:
        row = []
        for V in carrier:
            below = 0
            for y in iter_bits(U & ~V):
                below |= downs[y]
            row.append(index[full & ~below])
        table.append(row)
    heyting = HeytingAlgebra(
        poset=P,
        carrier=tuple(carrier),
        arrow=tuple(tuple(r) for r in table),
        top=k - 1,
        bottom=0,
    )
    return heyting, FiniteHilbertAlgebra.from_table(table)


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


def _closed_sets(below: Sequence[int], n: int) -> List[int]:
    """The sets of at most n up-sets of a poset P that hold P and every
    co-principal up-set P - down(x) and are closed under
    U -> V = P - below[U - V], where `below` is _down_sets of P's
    principal down-sets.  Each set is a mask with bit U for each member
    U; the list is ascending.

    The seed, P and its co-principal up-sets, is closed first.  Every
    closed S above it is reached from that closure by adding a member of
    S and closing, again and again, and none of the closures on the way
    is larger than S.  So a closure is dropped once it has more than n
    members, and each closed set is grown once.
    """
    full = len(below) - 1

    def close(S, members, done):
        # members[:done] are closed; each later member is paired, both
        # ways, with itself and the members before it
        while done < len(members):
            if len(members) > n:
                return None
            U = members[done]
            done += 1
            for V in members[:done]:
                for W in (full ^ below[U & ~V], full ^ below[V & ~U]):
                    if not S >> W & 1:
                        S |= 1 << W
                        members.append(W)
        return S, members

    seed = [full] + [full ^ below[1 << x] for x in range(full.bit_length())]
    start = close(sum(1 << U for U in seed), seed, 0)
    if start is None:
        return []
    ups = sorted({full ^ D for D in below})
    seen = {start[0]}
    frontier = [start]
    while frontier:
        S, members = frontier.pop()
        if len(members) == n:
            continue
        for U in ups:
            if not S >> U & 1:
                grown = close(S | 1 << U, members + [U], len(members))
                if grown is not None and grown[0] not in seen:
                    seen.add(grown[0])
                    frontier.append(grown)
    return sorted(seen)


def _closed_set_table(below: list, S: int) -> bytes:
    """The flat table, as bytes, of the closed set S of up-sets, with
    U -> V = P - below[U - V] and the members numbered in ascending
    order, so that P is the top."""
    full = len(below) - 1
    members = list(iter_bits(S))
    index = {U: i for i, U in enumerate(members)}
    return bytes(index[full ^ below[U & ~V]] for U in members for V in members)


def _tables(n: int, sizes) -> Dict[int, set]:
    """The distinct flat tables of the closed sets of each size in
    `sizes`, filed under their sizes in that order: the sets that
    _closed_sets finds over every class of posets with fewer than n
    points, with the poset levels built here, not read from the
    _class_codes cache.  Past _MAX_ENUM_CAP it raises before anything is
    built.  k points give sets of more than k members, so the tables of
    a size m <= n are the same for every n."""
    if n > _MAX_ENUM_CAP:
        raise SizeLimitError(f"size {n} exceeds enumeration cap {_MAX_ENUM_CAP}")
    tables = {m: set() for m in sizes}
    classes = _NO_POINTS
    for k in range(n):
        if k:
            classes = _next_classes(classes)
        for _, down in classes:
            below = _down_sets(down)
            for S in _closed_sets(below, n):
                filed = tables.get(S.bit_count())
                if filed is not None:
                    filed.add(_closed_set_table(below, S))
    return tables


def _algebras(n: int, tables) -> List[FiniteHilbertAlgebra]:
    """One algebra per class among the n-element flat tables `tables`,
    ascending by canonical table, one _canonical per distinct table."""
    relabellers = _table_relabellers(n)
    return [
        FiniteHilbertAlgebra.from_table([list(flat[a * n : (a + 1) * n]) for a in range(n)])
        for flat in sorted({_canonical(flat, relabellers) for flat in tables})
    ]


def enumerate_hilbert(n: int) -> List[FiniteHilbertAlgebra]:
    """One representative per isomorphism class of n-element Hilbert
    algebras, in ascending canonical-table order; refused past _MAX_ENUM_CAP."""
    if n < 1:
        raise RangeError("size must be at least 1")
    return _algebras(n, _tables(n, (n,))[n])
