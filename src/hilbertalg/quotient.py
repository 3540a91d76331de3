"""Quotients by filters: the congruence theta_F, A/F, and the filter
correspondence between the interval above F and the quotient's lattice."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .core import FiniteHilbertAlgebra, bit, iter_bits
from .errors import InternalInvariantError, InvalidAlgebraError, NotAFilterError
from .filters import all_filters, is_implicative_filter


@dataclass(frozen=True)
class Congruence:
    blocks: tuple  # disjoint masks covering the universe, by least member
    class_of: tuple  # element -> block index


@dataclass(frozen=True)
class QuotientResult:
    algebra: FiniteHilbertAlgebra
    projection: tuple  # element -> quotient element


def theta(A: FiniteHilbertAlgebra, F: int) -> Congruence:
    """Partition of A by a ~ b iff a->b and b->a both lie in F."""
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
    _assert_congruence(A, related, class_of, reps)
    return Congruence(blocks=tuple(blocks), class_of=tuple(class_of))


def _assert_congruence(A, related, class_of, reps):
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
    rep = [reps[c] for c in class_of]
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
