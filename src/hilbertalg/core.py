"""Finite Hilbert algebras: tables, validation, terms, subuniverses, isomorphism.

Elements are indices 0..n-1.  Subsets of the universe are plain int bit
masks (bit i set <=> element i in the subset), which keeps filters and
generator sets hashable and makes inclusion a single `&`.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Iterator, Optional, Sequence

from .errors import (
    InvalidAlgebraError,
    RangeError,
    SizeLimitError,
    UnboundVariableError,
)

MAX_UNIVERSE = 64  # one machine word per subset mask

# bytes.translate maps are 256 bytes long: a row of n entries (each below
# MAX_UNIVERSE <= 256) becomes one by appending _BYTE_VALUES[n:].
_BYTE_VALUES = bytes(range(256))


# ---------------------------------------------------------------------------
# subsets as bit masks


def bit(i: int) -> int:
    return 1 << i


def subset_of(elements) -> int:
    """Bit mask of an iterable of element indices."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_str(mask: int, names: Optional[Sequence[str]] = None) -> str:
    if names is None:
        return "{" + ",".join(str(i) for i in iter_bits(mask)) + "}"
    return "{" + ",".join(names[i] for i in iter_bits(mask)) + "}"


def _repeated_name(names: Sequence[str]) -> Optional[str]:
    """The first name in `names` that an earlier one equals, or None.
    Element names must be distinct, or a name would not say which
    element it stands for."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


# ---------------------------------------------------------------------------
# value types


class _Frozen:
    """Base of the package's value types: immutable, and compared, hashed
    and printed by their fields, as @dataclass(frozen=True) would make them.

    @dataclass(frozen=True) writes __init__, __repr__, __eq__, __hash__,
    __setattr__ and __delattr__ as source text and compiles each with exec
    when the class is created, so six methods per class on every import of
    the package.  Here the last five are written once, reading the fields
    from __dataclass_fields__ in order, and each subclass writes its own
    __init__, which stores the fields with self.__dict__.update.  The
    subclasses stay dataclasses, declared with init=False, repr=False and
    eq=False, which compiles nothing, so dataclasses.fields, replace,
    asdict and __match_args__ still work.  Every subclass has a
    docstring: for a class without one, dataclass writes __doc__ from
    inspect.signature, a large part of importing the package.
    cached_property writes to __dict__ directly, so memos that are not
    fields are kept as before.
    """

    __slots__ = ()

    def _field_values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__dataclass_fields__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__dataclass_fields__, self._field_values())
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# terms


@dataclass(init=False, repr=False, eq=False)
class Var(_Frozen):
    """The variable x_index of a term."""

    index: int

    def __init__(self, index: int):
        self.__dict__.update(index=index)


@dataclass(init=False, repr=False, eq=False)
class Imp(_Frozen):
    """The term left -> right."""

    left: "Term"
    right: "Term"

    def __init__(self, left: "Term", right: "Term"):
        self.__dict__.update(left=left, right=right)


# PEP 604 rather than typing.Union: Union[...] is memoised in typing's
# cache, which would keep Var, and through it this module's globals, alive
# across every fresh import of the package.
Term = Var | Imp


def term_width(t: Term) -> int:
    """Number of variables (max index + 1) occurring in a term."""
    if isinstance(t, Var):
        return t.index + 1
    return max(term_width(t.left), term_width(t.right))


# ---------------------------------------------------------------------------
# validation


@dataclass(init=False, repr=False, eq=False)
class ValidationReport(_Frozen):
    """Outcome of axiom checking; violations are (axiom, witness) pairs."""

    size: int
    violations: tuple

    def __init__(self, size: int, violations: tuple):
        self.__dict__.update(size=size, violations=violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"valid Hilbert algebra, size {self.size}"
        lines = [f"invalid table, size {self.size}:"]
        for axiom, witness in self.violations:
            lines.append(f"  {axiom} fails at {witness}")
        return "\n".join(lines)


def _check_entries(table) -> int:
    n = len(table)
    if n < 1:
        raise RangeError("empty table")
    if n > MAX_UNIVERSE:
        raise SizeLimitError(f"universe size {n} exceeds cap {MAX_UNIVERSE}")
    for a, row in enumerate(table):
        if len(row) != n:
            raise RangeError(f"row {a} has length {len(row)}, expected {n}")
        # One C-level test per row.  A row that fails it (a bool, a
        # non-int, an int subclass, a value out of range) is scanned entry
        # by entry, which raises on its first bad entry.
        if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
            continue
        for b, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise RangeError(f"entry [{a}][{b}] = {v!r} out of range [0,{n})")
    return n


def validate(table) -> ValidationReport:
    """Check the Hilbert algebra axioms on a raw n x n table.

    The axioms: a->a is the same element 1 for every a, K and S hold as
    identities, and -> is antisymmetric (a->b = b->a = 1 implies a = b).

    S is checked a row at a time: for each (a, b), the byte strings of
    a->(b->c) and of (a->b)->(a->c) over all c are built with
    bytes.translate, each table row serving as the map x |-> a->x.  The
    scan over c runs only when they differ or some x->x is not 1, so the
    report is that of a scan of every cell:
      - if x->x = 1 for every x, equal strings give lhs->rhs = 1 at every c;
      - every Hilbert algebra satisfies S with equality (Diego 1966), so a
        valid table never scans.
    """
    n = _check_entries(table)
    t = table
    top = t[0][0]
    bad = [("unit", (a,)) for a in range(n) if t[a][a] != top]
    units_hold = not bad
    rows = [bytes(row) for row in t]
    pad = _BYTE_VALUES[n:]
    maps = [row + pad for row in rows]
    for a in range(n):
        ta, row_a, map_a = t[a], rows[a], maps[a]
        for b in range(n):
            if ta[t[b][a]] != top:
                bad.append(("K", (a, b)))
            if a < b and ta[b] == top and t[b][a] == top:
                bad.append(("antisymmetry", (a, b)))
            if units_hold and rows[b].translate(map_a) == row_a.translate(maps[ta[b]]):
                continue
            for c in range(n):
                lhs = t[a][t[b][c]]
                rhs = t[t[a][b]][t[a][c]]
                if t[lhs][rhs] != top:
                    bad.append(("S", (a, b, c)))
    return ValidationReport(size=n, violations=tuple(bad))


def axioms_hold(table, n: int, top: int) -> bool:
    """Fast boolean version of validate() for search loops."""
    t = table
    for a in range(n):
        ta = t[a]
        if ta[a] != top:
            return False
        for b in range(n):
            if t[a][t[b][a]] != top:
                return False
            if a != b and ta[b] == top and t[b][a] == top:
                return False
            tb = t[b]
            for c in range(n):
                if t[ta[tb[c]]][t[ta[b]][ta[c]]] != top:
                    return False
    return True


# ---------------------------------------------------------------------------
# the algebra


@dataclass(init=False, repr=False, eq=False)
class FiniteHilbertAlgebra(_Frozen):
    """A finite Hilbert algebra on 0..size-1: arrow[a][b] is a -> b, top
    is 1, and names, when given, label the elements."""

    size: int
    arrow: tuple  # tuple of row tuples
    top: int
    names: Optional[tuple] = None

    def __init__(
        self, size: int, arrow: tuple, top: int, names: Optional[tuple] = None
    ):
        self.__dict__.update(size=size, arrow=arrow, top=top, names=names)

    @classmethod
    def from_table(cls, table, names=None) -> "FiniteHilbertAlgebra":
        report = validate(table)
        if not report.ok:
            raise InvalidAlgebraError(report)
        n = len(table)
        if names is not None:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise RangeError(f"{len(names)} names for {n} elements")
            repeated = _repeated_name(names)
            if repeated is not None:
                raise RangeError(f"names must be distinct, {repeated!r} is repeated")
        return cls(
            size=n,
            arrow=tuple(tuple(row) for row in table),
            top=table[0][0],
            names=names,
        )

    @cached_property
    def _filter_lattice(self):
        """Fi(A), built on first use and kept with this instance; it is
        not a field, so ==, hash and repr do not see it."""
        from .filters import _build_lattice  # filters imports this module

        return _build_lattice(self)

    @cached_property
    def _spectrum(self):
        """Spec(A), built on first use and kept like _filter_lattice; it
        is read off the table and never builds the lattice."""
        from .filters import _build_spectrum

        return _build_spectrum(self)

    @cached_property
    def _d_ladder(self):
        """The g table and T_0 > T_1 > ... of the d_n test, built whole on
        first use and kept like _filter_lattice."""
        from .depth_terms import _build_ladder

        return _build_ladder(self)

    def leq(self, a: int, b: int) -> bool:
        return self.arrow[a][b] == self.top

    def universe_mask(self) -> int:
        return (1 << self.size) - 1

    def upset_mask(self, a: int) -> int:
        """Principal upset of a, as a mask."""
        return subset_of(b for b in range(self.size) if self.leq(a, b))

    def element_named(self, label: str) -> int:
        if self.names is not None and label in self.names:
            return self.names.index(label)
        try:
            a = int(label)
        except ValueError:
            raise RangeError(f"unknown element {label!r}")
        if not 0 <= a < self.size:
            raise RangeError(f"element index {a} out of range [0,{self.size})")
        return a


# ---------------------------------------------------------------------------
# term evaluation and identities


def eval_term(A: FiniteHilbertAlgebra, t: Term, assignment: Sequence[int]) -> int:
    if isinstance(t, Var):
        if t.index >= len(assignment):
            raise UnboundVariableError(
                f"x{t.index} unbound in assignment of length {len(assignment)}"
            )
        return assignment[t.index]
    return A.arrow[eval_term(A, t.left, assignment)][eval_term(A, t.right, assignment)]


def _term_source(t: Term) -> str:
    """Source of `term(x0, ..., x{k-1})`, which evaluates t over a table
    named `arrow`.

    Each Imp node becomes one assignment `tJ = arrow[l][r]`, so the body
    does not nest however deep t is.  Only integers are spliced in: the
    variable indices and the node counter.
    """
    lines = []

    def emit(u) -> str:
        if isinstance(u, Var):
            return f"x{operator.index(u.index)}"
        left, right = emit(u.left), emit(u.right)
        lines.append(f"    t{len(lines)} = arrow[{left}][{right}]")
        return f"t{len(lines) - 1}"

    result = emit(t)
    params = ", ".join(f"x{i}" for i in range(term_width(t)))
    return "\n".join([f"def term({params}):", *lines, f"    return {result}"])


def satisfies_identity(A: FiniteHilbertAlgebra, t: Term):
    """Does t evaluate to 1 under every assignment?

    Returns (True, None) or (False, v) where v is the lexicographically
    least failing assignment.  The term is compiled once per call, then
    evaluated on every assignment in turn.
    """
    namespace = {"__builtins__": {}, "arrow": A.arrow}
    exec(_term_source(t), namespace)
    term = namespace["term"]
    for v in product(range(A.size), repeat=term_width(t)):
        if term(*v) != A.top:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# subuniverses and isomorphisms


def generated_subuniverse(A: FiniteHilbertAlgebra, X: int) -> int:
    """Least subset containing X and 1 that is closed under ->.

    Each element x that joins is paired, both ways, only with the
    members that joined before it and with itself: every pair is
    computed once.
    """
    arrow = A.arrow
    closed = bit(A.top)
    members = [A.top]
    for a in iter_bits(X):
        if not closed >> a & 1:
            closed |= 1 << a
            members.append(a)
    done = 0
    while done < len(members):
        x = members[done]
        row = arrow[x]
        done += 1
        for y in members[:done]:
            for v in (row[y], arrow[y][x]):
                if not closed >> v & 1:
                    closed |= 1 << v
                    members.append(v)
    return closed


def find_isomorphism(A: FiniteHilbertAlgebra, B: FiniteHilbertAlgebra):
    """A permutation h with h(a -> b) = h(a) -> h(b), or None.

    Exhaustive over permutations mapping top to top; fine at desk scale.
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


def chain_algebra(m: int) -> FiniteHilbertAlgebra:
    """The Goedel chain a_0 < ... < a_{m-1} < 1 on indices 0..m (top = m)."""
    if m < 1:
        raise RangeError("chain_algebra needs at least one non-top element")
    n = m + 1
    table = [[n - 1 if i <= j else j for j in range(n)] for i in range(n)]
    return FiniteHilbertAlgebra.from_table(table)


def trivial_algebra() -> FiniteHilbertAlgebra:
    return FiniteHilbertAlgebra.from_table([[0]])
