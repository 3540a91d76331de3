"""Quotients by filters: the congruence theta_F, A/F, and the filter
correspondence between the interval above F and the quotient's lattice."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .core import FiniteHilbertAlgebra, _Frozen, iter_bits, mask_str, subset_of
from .enumeration import _up_masks
from .errors import InternalInvariantError, InvalidAlgebraError, NotAFilterError
from .filters import _fg_with, all_filters, is_implicative_filter


@dataclass(init=False, repr=False, eq=False)
class Congruence(_Frozen):
    """A congruence of an algebra, as its blocks and each element's block."""

    blocks: tuple  # disjoint masks covering the universe, by least member
    class_of: tuple  # element -> block index

    def __init__(self, blocks: tuple, class_of: tuple):
        self.__dict__.update(blocks=blocks, class_of=class_of)


@dataclass(init=False, repr=False, eq=False)
class QuotientResult(_Frozen):
    """The quotient algebra A/F and the projection of A onto it."""

    algebra: FiniteHilbertAlgebra
    projection: tuple  # element -> quotient element

    def __init__(self, algebra: FiniteHilbertAlgebra, projection: tuple):
        self.__dict__.update(algebra=algebra, projection=projection)


def theta(A: FiniteHilbertAlgebra, F: int) -> Congruence:
    """Partition of A by a ~ b iff a->b and b->a both lie in F.

    The class of a is the mask R[a] & T[a], where R[a] holds the b with
    a->b in F and T[a] the b with b->a in F.  R[a] is Fg(F | {a}) by the
    deduction theorem (filters._fg_with), and T is the transpose of R,
    which _up_masks computes.  The filter test refuses a mask that is
    not an int or lies outside the universe with RangeError.
    """
    if not is_implicative_filter(A, F):
        raise NotAFilterError(
            f"{mask_str(F, A.names)} is not an implicative filter "
            "(must contain 1 and be closed under modus ponens)"
        )
    rows = [_fg_with(A, F, a) for a in range(A.size)]
    related = list(map(int.__and__, rows, _up_masks(rows)))
    index = {}  # each distinct class mask, in order of its least member
    class_of = [index.setdefault(r, len(index)) for r in related]
    blocks = tuple(index)
    _assert_congruence(A, related, class_of, blocks)
    return Congruence(blocks=blocks, class_of=tuple(class_of))


def _assert_congruence(A, related, class_of, blocks):
    """Check that the relation with rows `related` (masks) is a
    congruence, with class_of[a] the index in `blocks` of related[a].

    A relation is an equivalence iff it is reflexive and every b in
    related[a] has related[b] == related[a].  Given an equivalence,
    b ~ a puts b in a's class, so the rows are equal.  Conversely, b in
    related[a] gives related[b] = related[a], which holds a (symmetry)
    and every c in related[b] (transitivity).  For a reflexive relation
    the second condition says that each block, a distinct row, equals
    the set of elements with that row: a member a of the block lies in
    it, and every b in it must have the block as its row.
    """
    n = A.size
    for a in range(n):
        if not related[a] >> a & 1:
            raise InternalInvariantError("theta_F is not reflexive")
    held = [0] * len(blocks)
    for a in range(n):
        held[class_of[a]] |= 1 << a
    for block, members in zip(blocks, held):
        if block != members:
            a = (members & -members).bit_length() - 1
            b = (block & ~members).bit_length() - 1  # in a's row, not its block
            if not related[b] >> a & 1:
                raise InternalInvariantError("theta_F is not symmetric")
            raise InternalInvariantError("theta_F is not transitive")
    reps = [(block & -block).bit_length() - 1 for block in blocks]
    rep = [reps[c] for c in class_of]
    # Compatibility: a ~ a2 and b ~ b2 imply class(a->b) == class(a2->b2).
    # It suffices to check class(a->b) == class(rep(a)->rep(b)) for all a, b,
    # where rep(a) = reps[class(a)].  That is the case a2 = rep(a),
    # b2 = rep(b) of the full check, since rep(a) ~ a.  Conversely, it gives
    # the full check: class_of is a function, so a ~ a2 means
    # rep(a) = rep(a2), and both sides equal class(rep(a)->rep(b)).
    for a in range(n):
        row, rep_row = A.arrow[a], A.arrow[rep[a]]
        for b in range(n):
            if class_of[row[b]] != class_of[rep_row[rep[b]]]:
                raise InternalInvariantError("theta_F not arrow-compatible")


def quotient(A: FiniteHilbertAlgebra, F: int) -> QuotientResult:
    """The quotient algebra A/F with blocks indexed by least representative."""
    cong = theta(A, F)
    reps = [min(iter_bits(block)) for block in cong.blocks]
    # blocks were created in order of least member, so reps is ascending
    k = len(reps)
    table = [
        [cong.class_of[A.arrow[reps[i]][reps[j]]] for j in range(k)] for i in range(k)
    ]
    names = None
    if A.names is not None:
        names = [A.names[r] for r in reps]
    try:
        algebra = FiniteHilbertAlgebra.from_table(table, names=names)
    except InvalidAlgebraError as exc:
        raise InternalInvariantError(
            f"quotient failed validation: {exc.report.summary()}"
        ) from exc
    return QuotientResult(algebra=algebra, projection=cong.class_of)


def correspondence_check(
    A: FiniteHilbertAlgebra, F: int
) -> Tuple[Dict[int, int], bool]:
    """The map h(G) = {g/F : g in G} from filters above F to filters of A/F.

    Returns (mapping, verdict): verdict is True iff h is a bijection onto
    Fi(A/F) that preserves and reflects inclusion.  False signals a bug.
    """
    q = quotient(A, F)
    proj = q.projection
    above = [G for G in all_filters(A) if G & F == F]
    mapping = {}
    for G in above:
        mapping[G] = subset_of(proj[g] for g in iter_bits(G))
    quotient_filters = set(all_filters(q.algebra))
    images = list(mapping.values())
    ok = (
        len(set(images)) == len(above)
        and set(images) == quotient_filters
        and all(
            (G & H == G) == (mapping[G] & mapping[H] == mapping[G])
            for G in above
            for H in above
        )
    )
    return mapping, ok
