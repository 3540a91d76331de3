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
    FiniteHilbertAlgebra,
    Imp,
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
# value in T_{n-k}.  Cost O(|A|^2 + n*|A|) against |A|^(n+1).


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


def _g_table(A: FiniteHilbertAlgebra) -> list:
    """g[v][x] for every pair of elements."""
    elements = range(A.size)
    return [[_g(A.arrow, v, x) for x in elements] for v in elements]


def _failure_sets(A: FiniteHilbertAlgebra, g: list, n_max: int) -> list:
    """T_0..T_{n_max} as masks, cut after the first empty one: each set is
    computed from the one before, so every later set is empty too.  They
    depend only on the number of steps left, so one list serves every
    n <= n_max."""
    reach = [subset_of(row) for row in g]
    sets = [A.universe_mask() & ~bit(A.top)]
    while sets[-1] and len(sets) <= n_max:
        target = sets[-1]
        sets.append(subset_of(v for v, r in enumerate(reach) if r & target))
    return sets


def _least_counterexample(g: list, sets: list, n: int) -> Optional[tuple]:
    """The lexicographically least assignment with d_n != 1, or None."""
    if n >= len(sets) or not sets[n]:
        return None
    v = next(iter_bits(sets[n]))
    assignment = [v]
    for left in range(n - 1, -1, -1):
        target = sets[left]
        x = next(x for x, w in enumerate(g[v]) if target >> w & 1)
        v = g[v][x]
        assignment.append(x)
    return tuple(assignment)


def depth_leq_via_identity(
    A: FiniteHilbertAlgebra, n: int
) -> Tuple[bool, Optional[tuple]]:
    """Whether A |= d_n = 1, with the least counterexample on failure."""
    n = max(n, 0)  # d_term(n) is x0 for every n <= 0
    g = _g_table(A)
    cex = _least_counterexample(g, _failure_sets(A, g, n), n)
    return cex is None, cex


@dataclass(frozen=True)
class DepthReport:
    algebra: FiniteHilbertAlgebra
    depth: int
    rows: tuple  # (n, depth <= n, d_n holds, agree)
    counterexamples: dict  # n -> least failing assignment

    @property
    def all_agree(self) -> bool:
        return all(agree for _, _, _, agree in self.rows)


def verify_main_theorem(A: FiniteHilbertAlgebra, n_max: int) -> DepthReport:
    """Compare depth(A) <= n against A |= d_n = 1 for every n <= n_max."""
    d = depth(A)
    g = _g_table(A)
    sets = _failure_sets(A, g, n_max)
    rows = []
    counterexamples = {}
    for n in range(n_max + 1):
        cex = _least_counterexample(g, sets, n)
        holds = cex is None
        rows.append((n, d <= n, holds, (d <= n) == holds))
        if cex is not None:
            counterexamples[n] = cex
    return DepthReport(
        algebra=A, depth=d, rows=tuple(rows), counterexamples=counterexamples
    )


# ---------------------------------------------------------------------------
# proof procedure 1: counterexample -> chain of meet-irreducibles


@dataclass(frozen=True)
class ChainWitness:
    """Strictly increasing meet-irreducible filters F_0 < ... < F_n."""

    algebra: FiniteHilbertAlgebra
    filters: tuple


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


@dataclass(frozen=True)
class SubalgebraChainWitness:
    """Elements a_0 < ... < a_n < 1 forming a subuniverse with a_n outside F_0."""

    algebra: FiniteHilbertAlgebra
    elements: tuple


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
