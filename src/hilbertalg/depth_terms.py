"""The d_n term family, the equational depth test, and the two
constructive procedures extracted from the depth theorem's proof:

* a failing d_n assignment is turned into a strict (n+1)-chain of
  meet-irreducible filters, and
* such a chain is turned back into a chain subuniverse
  a_0 < ... < a_n < 1 on which every d_i(a_0..a_i) = a_i.

The proof of the first passes from A to A/F at each step; the procedure
stays in A and walks up the interval of filters above F instead, so it
builds no quotient algebra.  Both procedures check the proof's
intermediate claims at runtime and raise InternalInvariantError if one
fails, which would signal a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .core import (
    _BYTE_VALUES,
    FiniteHilbertAlgebra,
    Imp,
    _Frozen,
    Term,
    Var,
    bit,
    iter_bits,
    subset_of,
)
from .errors import (
    InternalInvariantError,
    PreconditionError,
    RangeError,
    UnboundVariableError,
)
from .filters import _fg_with, _separate, depth, meet_irreducibles


def d_term(n: int) -> Term:
    """d_0 = x0;  d_{k+1} = ((x_{k+1} -> d_k) -> x_{k+1}) -> x_{k+1}."""
    t: Term = Var(0)
    for k in range(1, n + 1):
        x = Var(k)
        t = Imp(Imp(Imp(x, t), x), x)
    return t


# ---------------------------------------------------------------------------
# deciding d_n = 1
#
# d_{k+1} depends only on the value of d_k and on x_{k+1}, through
# g(v, x) = ((x -> v) -> x) -> x.  So instead of scanning all |A|^(n+1)
# assignments, work backwards over value sets: T_0 = A - {1}, and T_j holds
# the values v of d_{n-j} from which some x_{n-j+1}..x_n drive d_n into T_0,
# i.e. T_{j+1} = {v : g(v, x) in T_j for some x}.  Then d_n fails iff T_n is
# nonempty, and the lexicographically least counterexample is picked
# forwards: x_0 = min T_n, then each x_k is the least x keeping the running
# value in T_{n-k}.  The sets depend only on the number of steps left, so
# one ladder per algebra (_build_ladder, kept as A._d_ladder) serves every
# n; each decision then costs O(n*|A|) against |A|^(n+1).


def _g(arrow, v: int, x: int) -> int:
    """One step of the recurrence d_{k+1} = g(d_k, x_{k+1})."""
    return arrow[arrow[arrow[x][v]][x]][x]


def _d_values(A: FiniteHilbertAlgebra, assignment: Sequence[int], n: int) -> list:
    """The values of d_0..d_n under an assignment, by folding g over
    x_1..x_n."""
    n = max(n, 0)  # d_term(n) is x0 for every n <= 0
    if len(assignment) <= n:
        raise UnboundVariableError(
            f"x{n} unbound in assignment of length {len(assignment)}"
        )
    values = [assignment[0]]
    for x in assignment[1 : n + 1]:
        values.append(_g(A.arrow, values[-1], x))
    return values


def _build_ladder(A: FiniteHilbertAlgebra) -> tuple:
    """The d_n test's tables for A, built whole, once: (g, sets).

    g[v] holds g(v, x) for every x, as bytes; sets holds T_0 > T_1 > ...
    as masks, and T_j for every j past the last entry equals the last
    entry.  The build steps through reach[v], the mask of the values in
    g[v], which is not kept.  A plain tuple, because a class here would
    be built at every import of the package.

    Column x of g, the values g(v, x) over v, is row x of the table (the
    map v |-> x -> v) mapped twice through column x (the map y |-> y -> x).
    bytes.translate applies each map in C, as in core.validate, and
    zip(*...) turns the columns into rows.

    The ladder is exact without the depth theorem.  g(1, x) = ((x -> 1)
    -> x) -> x = (1 -> x) -> x = x -> x = 1, so 1 lies in no T_{j+1} and
    T_1 <= T_0 = A - {1}.  Taking preimages is monotone, so T_j <= T_{j-1}
    gives T_{j+1} <= T_j, and T_{j+1} = T_j makes every later set equal to
    it.  So the sets shrink strictly until one is empty or repeats, which
    takes at most |A| - 1 steps, and the list stops there.  (By the
    theorem the last set is empty, after depth(A) steps.)
    """
    n = A.size
    pad = _BYTE_VALUES[n:]
    columns = []
    for row, column in zip(A.arrow, zip(*A.arrow)):
        to_x = bytes(column) + pad
        columns.append(bytes(row).translate(to_x).translate(to_x))
    g = tuple(bytes(values) for values in zip(*columns))
    reach = tuple(subset_of(set(values)) for values in g)
    sets = [A.universe_mask() & ~bit(A.top)]
    while sets[-1]:
        target = sets[-1]
        below = subset_of(v for v, r in enumerate(reach) if r & target)
        # Checked, not assumed: a step outside the set before could cycle.
        if below & ~target:
            raise InternalInvariantError("T_{j+1} is not inside T_j")
        if below == target:
            break
        sets.append(below)
    return g, tuple(sets)


def _least_counterexample(ladder: tuple, n: int) -> Optional[tuple]:
    """The lexicographically least assignment with d_n != 1, or None."""
    g, sets = ladder
    last = len(sets) - 1
    start = sets[min(n, last)]
    if not start:
        return None
    v = next(iter_bits(start))
    assignment = [v]
    for left in range(n - 1, -1, -1):
        target = sets[min(left, last)]
        x = next(x for x, w in enumerate(g[v]) if target >> w & 1)
        v = g[v][x]
        assignment.append(x)
    return tuple(assignment)


def depth_leq_via_identity(
    A: FiniteHilbertAlgebra, n: int
) -> Tuple[bool, Optional[tuple]]:
    """Whether A |= d_n = 1, with the least counterexample on failure.

    Reads the ladder kept on A, which the first call builds."""
    n = max(n, 0)  # d_term(n) is x0 for every n <= 0
    cex = _least_counterexample(A._d_ladder, n)
    return cex is None, cex


@dataclass(init=False, repr=False, eq=False)
class DepthReport(_Frozen):
    """depth(A) <= n against A |= d_n = 1 for each n up to a bound, with
    the least counterexample for each n where d_n fails."""

    algebra: FiniteHilbertAlgebra
    depth: int
    rows: tuple  # (n, depth <= n, d_n holds, agree)
    counterexamples: dict  # n -> least failing assignment

    def __init__(
        self,
        algebra: FiniteHilbertAlgebra,
        depth: int,
        rows: tuple,
        counterexamples: dict,
    ):
        self.__dict__.update(
            algebra=algebra, depth=depth, rows=rows, counterexamples=counterexamples
        )

    @property
    def all_agree(self) -> bool:
        return all(agree for _, _, _, agree in self.rows)


def verify_main_theorem(A: FiniteHilbertAlgebra, n_max: int) -> DepthReport:
    """Compare depth(A) <= n against A |= d_n = 1 for every n <= n_max."""
    d = depth(A)
    ladder = A._d_ladder
    rows = []
    counterexamples = {}
    for n in range(n_max + 1):
        cex = _least_counterexample(ladder, n)
        holds = cex is None
        rows.append((n, d <= n, holds, (d <= n) == holds))
        if cex is not None:
            counterexamples[n] = cex
    return DepthReport(
        algebra=A, depth=d, rows=tuple(rows), counterexamples=counterexamples
    )


# ---------------------------------------------------------------------------
# proof procedure 1: counterexample -> chain of meet-irreducibles


@dataclass(init=False, repr=False, eq=False)
class ChainWitness(_Frozen):
    """Strictly increasing meet-irreducible filters F_0 < ... < F_n."""

    algebra: FiniteHilbertAlgebra
    filters: tuple

    def __init__(self, algebra: FiniteHilbertAlgebra, filters: tuple):
        self.__dict__.update(algebra=algebra, filters=filters)


def chain_from_counterexample(
    A: FiniteHilbertAlgebra, assignment: Sequence[int], n: int
) -> ChainWitness:
    """Build a strict (n+1)-chain in the spectrum from a failing d_n assignment.

    Follows the proof's induction: separate off F_0, generate
    F = Fg(F_0 | {a_n}), and recurse in A/F, where d_{n-1} still fails.
    The recursion is run inside A (see _chain_in_interval), so each
    member comes out as a filter of A.
    """
    n = max(n, 0)  # d_term(n) is x0 for every n <= 0
    assignment = tuple(assignment)
    for i, x in enumerate(assignment):
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < A.size:
            raise RangeError(f"x{i} = {x!r} out of range [0,{A.size})")
    values = _d_values(A, assignment, n)
    if values[n] == A.top:
        raise PreconditionError("d_n evaluates to 1 under this assignment")
    filters = tuple(_chain_in_interval(A, assignment, values, n))
    if not _is_spectrum_chain(A, filters):
        raise InternalInvariantError("chain is not strict in the spectrum")
    return ChainWitness(algebra=A, filters=filters)


def _chain_in_interval(A, assignment, values, n):
    """The proof's recursion through A/F_n, (A/F_n)/F_{n-1}, ..., run in A.

    The quotient at each level is A/E for a filter E of A: first {1},
    then each F.  By the correspondence theorem, pi: A -> A/E maps the
    filters of A above E onto Fi(A/E), preserving and reflecting
    inclusion, with the preimage as inverse; those filters are unions of
    theta_E classes, so x/E lies in G/E iff x lies in G.  So every
    quotient step is a mask operation in A:

    * d_{k-1} at the level's assignment is pi(values[k-1]), since pi is
      a homomorphism.
    * The upset of lhs/E in A/E pulls back to {y : lhs -> y in E}
      (pi^-1(1) = E), which is Fg(E | {lhs}) by the deduction theorem.
    * separate in A/E is _separate(A, X, a_k, E), which picks among the
      members of Spec(A) above X, and breaks ties as A/E numbers its
      elements.
    * Fg(F_0/E | {a_k/E}) pulls back to Fg(F_0 | {a_k}) = {y : a_k -> y
      in F_0}.
    * A quotient of A/E by F/E is A/F, numbered by least representatives
      in A as well.

    The quotient route checked that theta_F is a congruence and validated
    A/F; those checks guarded an algebra this path does not build, and
    quotient() keeps them for its own callers.  Each level still checks
    that F_0 lies above X and avoids a_k, that F_0 < F, and that the
    d_{k-1} value lies outside F, and chain_from_counterexample checks
    the whole chain against Spec(A).
    """
    arrow = A.arrow
    E = bit(A.top)
    chain = []
    for k in range(n, 0, -1):
        b, ak = values[k - 1], assignment[k]
        lhs = arrow[arrow[ak][b]][ak]  # (a_k -> b) -> a_k, not <= a_k
        X = _fg_with(A, E, lhs)
        F0 = _separate(A, X, ak, E)
        if F0 & X != X or F0 >> ak & 1:
            raise InternalInvariantError("separate left X or took a_n")
        F = _fg_with(A, F0, ak)
        if F & F0 != F0 or F == F0:
            raise InternalInvariantError("Fg(F_0 | {a_n}) is not strictly above F_0")
        if F >> b & 1:
            raise InternalInvariantError("d_{n-1} value landed in Fg(F_0 | {a_n})")
        chain.append(F0)
        E = F
    chain.append(_separate(A, E, assignment[0], E))
    return chain


def _is_spectrum_chain(A: FiniteHilbertAlgebra, fs: tuple) -> bool:
    """Every member lies in Spec(A) and each is strictly below the next."""
    spectrum = meet_irreducibles(A)
    return all(F in spectrum for F in fs) and all(
        F & G == F and F != G for F, G in zip(fs, fs[1:])
    )


# ---------------------------------------------------------------------------
# proof procedure 2: chain of meet-irreducibles -> chain subuniverse


@dataclass(init=False, repr=False, eq=False)
class SubalgebraChainWitness(_Frozen):
    """Elements a_0 < ... < a_n < 1 forming a subuniverse with a_n outside F_0."""

    algebra: FiniteHilbertAlgebra
    elements: tuple

    def __init__(self, algebra: FiniteHilbertAlgebra, elements: tuple):
        self.__dict__.update(algebra=algebra, elements=elements)


def subalgebra_from_chain(
    A: FiniteHilbertAlgebra, chain: ChainWitness
) -> SubalgebraChainWitness:
    """Extract the chain subuniverse witnessing failure of d_n.

    Induction from the proof: the tail chain gives a_0 < ... < a_{n-1}
    with a_{n-1} outside the tail's first filter; the next element is
    the least member of (F_1 & G) - F_0 where G collects the b with
    a_{n-1} <= b and b -> a_{n-1} = a_{n-1}.
    """
    fs = chain.filters
    if not fs:
        raise PreconditionError("empty filter chain")
    if not _is_spectrum_chain(A, fs):
        raise PreconditionError("filter chain is not strict in the spectrum")
    elements = _subalg_rec(A, fs)
    witness = SubalgebraChainWitness(algebra=A, elements=tuple(elements))
    _check_subalgebra(witness, fs[0])
    return witness


def _subalg_rec(A, fs):
    F0 = fs[0]
    if len(fs) == 1:
        outside = A.universe_mask() & ~F0
        if not outside:
            raise InternalInvariantError("meet-irreducible filter covers the universe")
        return [min(iter_bits(outside))]
    prev = _subalg_rec(A, fs[1:])
    am = prev[-1]
    G = subset_of(
        b for b in range(A.size) if A.leq(am, b) and A.arrow[b][am] == am
    )
    candidates = fs[1] & G & ~F0
    if not candidates:
        raise InternalInvariantError("(F_1 & G) - F_0 is empty")
    return prev + [min(iter_bits(candidates))]


def _check_subalgebra(witness: SubalgebraChainWitness, F0: int) -> None:
    A = witness.algebra
    es = witness.elements
    if F0 >> es[-1] & 1:
        raise InternalInvariantError("top chain element lies in F_0")
    for a, b in zip(es, es[1:]):
        if not (A.leq(a, b) and a != b):
            raise InternalInvariantError("witness elements are not strictly increasing")
    if any(a == A.top for a in es):
        raise InternalInvariantError("witness chain reaches the top element")
    for j, aj in enumerate(es):
        for i in range(j):
            if A.arrow[aj][es[i]] != es[i]:
                raise InternalInvariantError("a_j -> a_i = a_i fails on the witness")
    closed = subset_of(es) | bit(A.top)
    for a in iter_bits(closed):
        for b in iter_bits(closed):
            if not closed >> A.arrow[a][b] & 1:
                raise InternalInvariantError("witness elements do not form a subuniverse")
