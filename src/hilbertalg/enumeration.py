"""Isomorph-free exhaustive generation of finite Hilbert algebras, plus
finite Heyting algebras built as upset algebras of posets.

Every class of n >= 2 elements is a class of n - 1 elements plus one
new minimal element.  K gives y <= x -> y.  So if z is minimal and
x, y != z, then x -> y = z would give y <= z, so y = z: A - {z} is a
subalgebra.  enumerate_hilbert(n) therefore grows the classes of size n
from the class representatives of size n - 1, as _class_codes grows
posets by a new maximal point.  Each representative gets a new element
z, and a backtracking search (_grow) fills z's row and column, the only
new cells.  Both generators follow the orderly rule (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): a
candidate is dropped as soon as its new element cannot be the one
chosen for deletion, a minimal element with a largest up-set (a
maximal point with a largest down-set for posets).  Each table left is
keyed by its canonical form (the lexicographically least table over
the permutations fixing the top at n-1), computed once per distinct
table, and the classes come out in ascending canonical-table order.
Each poset left is keyed by its least code (_least_code).

The least poset codes of each number of points are cached, with the
down-set masks of the posets they code, so each level is built once
per process; only all_posets reads them.  The canonical tables are not
cached.  enumerate_hilbert and the CLI's verify --enumerate
(_enumerate_levels) both walk the sizes 1..n, and a shared cache would
make the cost of either depend on whether the other ran first.  Each
call builds each size up to n once.  enumerate_hilbert,
_enumerate_levels and all_posets build new, validated objects on every
call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress, permutations
from operator import itemgetter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .core import FiniteHilbertAlgebra, _Frozen, bit, iter_bits, subset_of
from .errors import RangeError, SizeLimitError
from .filters import depth

DEFAULT_ENUM_CAP = 5
ENUM_CAP_ENV = "HILBERT_SIZE_CAP"
# The largest size enumerate_hilbert is measured to finish: size 7 takes
# about 0.7 s and size 8 about 49 s, 5,850 tables keyed over 7!
# relabellings each (Python 3.11, one core).  Size 9 would key each table
# over 8! relabellings.
_MAX_ENUM_CAP = 8


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
    if cap > _MAX_ENUM_CAP:
        raise RangeError(
            f"{ENUM_CAP_ENV} must be at most {_MAX_ENUM_CAP}, the largest size "
            f"the generator is measured to finish, got {raw!r}"
        )
    return cap


# ---------------------------------------------------------------------------
# posets


@dataclass(init=False, repr=False, eq=False)
class Poset(_Frozen):
    """A partial order on 0..size-1, leq[a][b] being a <= b; checked on
    construction."""

    size: int
    leq: tuple  # tuple of row tuples of bool

    def __init__(self, size: int, leq: tuple):
        self.__dict__.update(size=size, leq=leq)
        self.__post_init__()

    def __post_init__(self):
        n, leq = self.size, self.leq
        if len(leq) != n or any(len(row) != n for row in leq):
            raise RangeError(f"leq must have {n} rows of {n} entries")
        r = range(n)
        up = [subset_of(compress(r, leq[a])) for a in r]
        for a in r:
            # Row a holds iff a <= a and each b >= a has its up-set inside
            # a's and, unless b = a, is not <= a.  A row that fails is
            # scanned cell by cell, which raises on its first bad cell.
            row, ua = leq[a], up[a]
            if ua >> a & 1:
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
    """
    masks = [0]
    for x in sorted(range(len(principal)), key=lambda x: -principal[x].bit_count()):
        p = principal[x]
        masks += [m | p for m in masks if not m >> x & 1]
    return sorted(masks)


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
    masks `down`: y is above x iff x is in down[y].  iter_bits is
    inlined, as this is a large part of _least_code on few points."""
    up = [0] * len(down)
    for y, d in enumerate(down):
        while d:
            low = d & -d
            up[low.bit_length() - 1] |= 1 << y
            d ^= low
    return up


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


@cache
def _class_codes(k: int) -> Tuple[Tuple[tuple, tuple], ...]:
    """The least code of each isomorphism class of k-point posets, with
    the principal down-set masks of the poset it codes, as (code, down)
    pairs in ascending code order.

    Every class is reached by a representative on k-1 points plus a new
    maximal point k-1 above one of its down-sets, where the new point's
    principal down-set is a largest among the maximal points: delete
    from any k-poset a maximal point m with a largest down-set, and the
    rest is isomorphic to a representative, with m above the image of
    its down-set and the other maximal points keeping theirs.  Candidates
    whose new point has a smaller down-set than a maximal point outside
    it are skipped.  Each candidate is keyed by _least_code, and each
    class's code is decoded once.  Cached: each level is built once per
    process from the one below.
    """
    if k == 0:
        return (((), ()),)
    codes = set()
    for _, down in _class_codes(k - 1):
        tops = [
            (y, down[y].bit_count())
            for y in range(k - 1)
            if not any(z != y and down[z] >> y & 1 for z in range(k - 1))
        ]
        for below in _closed_masks(down):
            size = below.bit_count() + 1
            if all(below >> y & 1 or s <= size for y, s in tops):
                codes.add(_least_code(down + (below | bit(k - 1),)))
    return tuple((code, _down_masks(k, code)) for code in sorted(codes))


def all_posets(k: int, up_to_iso: bool = False) -> List[Poset]:
    """All posets on k labeled elements (or one per isomorphism class).

    A poset's code lists, for each pair a < b in lexicographic order, 0 if
    a and b are incomparable, 1 if a is below b and 2 if b is below a.
    Posets come in ascending code order, and a class is represented by
    its least code (_class_codes).  Every labelled poset is a relabelling
    of its class's representative, so relabelling those reaches every
    code.
    """
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


def _class_tables(n: int) -> Tuple[tuple, ...]:
    """The canonical flat tables of the n-element Hilbert algebras,
    ascending, each class grown from a class of n - 1 elements."""
    return _table_levels(n)[-1]


def _algebras(flats, n: int) -> List[FiniteHilbertAlgebra]:
    return [
        FiniteHilbertAlgebra.from_table(
            [list(flat[a * n : (a + 1) * n]) for a in range(n)]
        )
        for flat in flats
    ]


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
    return _algebras(_class_tables(n), n)


def _enumerate_levels(n: int) -> List[List[FiniteHilbertAlgebra]]:
    """enumerate_hilbert(size) for each size 1..n, n >= 1, from one walk
    up the sizes.  Above the cap it refuses the first size past it, as
    calling enumerate_hilbert on each size in turn would."""
    cap = enum_cap()
    if n > cap:
        raise SizeLimitError(f"size {cap + 1} exceeds enumeration cap {cap}")
    return [
        _algebras(flats, size) for size, flats in enumerate(_table_levels(n), start=1)
    ]
