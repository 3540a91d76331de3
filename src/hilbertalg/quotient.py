"""Quotients by filters: the congruence theta_F, A/F, and the filter
correspondence between the interval above F and the quotient's lattice."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .core import _BYTE_VALUES, FiniteHilbertAlgebra, _check_mask, _Frozen, bit, iter_bits
from .errors import InternalInvariantError, InvalidAlgebraError, NotAFilterError
from .filters import all_filters


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
    a->b in F (row a of the table) and T[a] the b with b->a in F
    (column a).  The table is translated once into the digits "1" (in
    F) and "0" and reversed, so that each row and column is a slice that
    int(_, 2) reads as its mask.  F is an implicative filter iff it
    holds 1 and R[a] lies inside F for every a in F, which is modus
    ponens with a as the premise.
    """
    _check_mask(A, F)
    n = A.size
    digits = format(F, f"0{n}b")[::-1].encode() + _BYTE_VALUES[n:]
    bits = b"".join(map(bytes, A.arrow)).translate(digits)[::-1]
    # bits[k*n : (k+1)*n] is row n-1-k and bits[k::n] column n-1-k.
    rows = [int(bits[k : k + n], 2) for k in range(0, n * n, n)][::-1]
    if not F >> A.top & 1 or any(rows[a] & ~F for a in iter_bits(F)):
        raise NotAFilterError(f"mask {F:#x} is not an implicative filter")
    cols = [int(bits[k::n], 2) for k in range(n)][::-1]
    related = list(map(int.__and__, rows, cols))
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
    above = [G for G in all_filters(A).filters if G & F == F]
    mapping = {}
    for G in above:
        image = 0
        for g in iter_bits(G):
            image |= bit(proj[g])
        mapping[G] = image
    quotient_filters = set(all_filters(q.algebra).filters)
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
