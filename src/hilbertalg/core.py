"""Finite Hilbert algebras: tables, validation, terms and identities.

Elements are indices 0..n-1.  Subsets of the universe are plain int bit
masks (bit i set <=> element i in the subset), which keeps filters and
generator sets hashable and makes inclusion a single `&`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import (
    InvalidAlgebraError,
    RangeError,
    SizeLimitError,
    UnboundVariableError,
)

MAX_UNIVERSE = 64  # a chosen cap, not a word size: masks are Python ints

# bytes.translate maps are 256 bytes long: a row of n entries (each below
# MAX_UNIVERSE <= 256) becomes one by appending _BYTE_VALUES[n:].
_BYTE_VALUES = bytes(range(256))


def _marks(mask: int) -> bytes:
    """The translate map that sends each member of mask (below 256) to
    b"1" and every other byte to b"0".  A string s marked through it
    reads back as the mask int(s[::-1], 2) of the places it marks; base 2
    is exempt from Python's limit on int-string digits."""
    return format(mask, "0256b")[::-1].encode()


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


def _check_int(value, what: str, least: Optional[int] = None) -> None:
    """Refuse a value that is not an int (a bool is one) or is below least."""
    if not isinstance(value, int):
        raise RangeError(f"{what} must be an int")
    if least is not None and value < least:
        raise RangeError(f"{what} must be at least {least}")


def _check_mask(A, X: int) -> None:
    _check_int(X, "mask")
    # a negative mask has endless bits; a bit past the universe is no row
    if X < 0 or X >> A.size:
        raise RangeError(f"mask {X:#x} not inside the universe [0,{A.size})")


def mask_str(mask: int, names: Optional[Sequence[str]] = None) -> str:
    if names is None:
        return "{" + ",".join(str(i) for i in iter_bits(mask)) + "}"
    return "{" + ",".join(names[i] for i in iter_bits(mask)) + "}"


def _name_fault(names: Sequence[str]) -> Optional[str]:
    """Why `names` cannot label the elements, or None if they can.

    A name must say which element it stands for, wherever an element is
    named: in `quotient --filter`, which splits its argument at commas
    and strips each token, and in mask_str, which joins names with
    commas.  So each name is non-empty, holds no comma, neither starts
    nor ends with whitespace, and differs from every earlier name."""
    seen = set()
    for name in names:
        if not name or "," in name or name != name.strip():
            return (
                "names must be non-empty, hold no comma and not start or end "
                f"with whitespace, {name!r} does not"
            )
        if name in seen:
            return f"names must be distinct, {name!r} is repeated"
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
        _check_int(index, "variable index", 0)
        self.__dict__.update(index=index)


@dataclass(init=False, repr=False, eq=False)
class Imp(_Frozen):
    """The term left -> right."""

    left: "Term"
    right: "Term"

    def __init__(self, left: "Term", right: "Term"):
        if not (isinstance(left, Term) and isinstance(right, Term)):
            raise RangeError("Imp operands must be terms")
        self.__dict__.update(left=left, right=right)


# PEP 604 rather than typing.Union: Union[...] is memoised in typing's
# cache, which would keep Var, and through it this module's globals, alive
# across every fresh import of the package.
Term = Var | Imp


def _postorder(t: Term) -> list:
    """The nodes of t, each after its operands, left before right: the
    reverse of a stack walk that takes each node before its right operand
    and that before its left, so t may be of any depth."""
    if not isinstance(t, Term):
        raise RangeError("a term must be a Var or an Imp")
    nodes, stack = [], [t]
    while stack:
        u = stack.pop()
        nodes.append(u)
        if isinstance(u, Imp):
            stack += u.left, u.right
    return nodes[::-1]


def term_width(t: Term) -> int:
    """Number of variables (max index + 1) occurring in a term."""
    return max(u.index for u in _postorder(t) if isinstance(u, Var)) + 1


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
            fault = _name_fault(names)
            if fault is not None:
                raise RangeError(fault)
        return cls(
            size=n,
            arrow=tuple(tuple(row) for row in table),
            top=table[0][0],
            names=names,
        )

    @cached_property
    def _spectrum(self):
        """Spec(A), built on first use and kept with this instance; it is
        not a field, so ==, hash and repr do not see it."""
        from .filters import _build_spectrum  # filters imports this module

        return _build_spectrum(self)

    @cached_property
    def _d_ladder(self):
        """The g table and the whole T_0 > T_1 > ... of the d_n test, kept
        like _spectrum: built whole on first use and never replaced."""
        from .depth_terms import _ladder

        return _ladder(self, self.size)

    def leq(self, a: int, b: int) -> bool:
        return self.arrow[a][b] == self.top

    def universe_mask(self) -> int:
        return (1 << self.size) - 1

    def element_named(self, label: str) -> int:
        """The element a label means: a name when the elements have names,
        else an index, written -?[0-9]+ in ASCII (int() would also take
        "0_1", "+1" and non-ASCII digits)."""
        if self.names is not None:
            if label not in self.names:
                raise RangeError(f"unknown element {label!r}")
            return self.names.index(label)
        if not re.fullmatch("-?[0-9]+", label):
            raise RangeError(f"unknown element {label!r}")
        a = int(label)
        if not 0 <= a < self.size:
            raise RangeError(f"element index {a} out of range [0,{self.size})")
        return a


# ---------------------------------------------------------------------------
# term evaluation and identities


def _check_assignment(A: FiniteHilbertAlgebra, assignment: Sequence[int]) -> None:
    """Refuse an assignment entry that is not an element of A."""
    for i, x in enumerate(assignment):
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < A.size:
            raise RangeError(f"x{i} = {x!r} out of range [0,{A.size})")


def eval_term(A: FiniteHilbertAlgebra, t: Term, assignment: Sequence[int]) -> int:
    """The value of t when each x_i is assignment[i], an element of A."""
    _check_assignment(A, assignment)
    arrow, values = A.arrow, []
    for u in _postorder(t):
        if isinstance(u, Imp):
            values[-2:] = [arrow[values[-2]][values[-1]]]
        elif u.index < len(assignment):
            values.append(assignment[u.index])
        else:
            raise UnboundVariableError(
                f"x{u.index} unbound in assignment of length {len(assignment)}"
            )
    return values[0]


def _term_source(t: Term) -> str:
    """Source of `term(x0, ..., x{k-1})`, which evaluates t over a table
    named `arrow`.

    Each Imp node, in _postorder's order, becomes one line `tJ = arrow[l][r]`,
    so neither the body nor its building nests, however deep t is.  Only
    integers are spliced in: the variable indices and the node counter.
    """
    lines, names = [], []
    for u in _postorder(t):
        if isinstance(u, Var):
            names.append(f"x{operator.index(u.index)}")
        else:
            lines.append(f"    t{len(lines)} = arrow[{names[-2]}][{names[-1]}]")
            names[-2:] = [f"t{len(lines) - 1}"]
    params = ", ".join(f"x{i}" for i in range(term_width(t)))
    return "\n".join([f"def term({params}):", *lines, f"    return {names[0]}"])


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
# standard algebras


def chain_algebra(m: int) -> FiniteHilbertAlgebra:
    """The Goedel chain a_0 < ... < a_{m-1} < 1 on indices 0..m (top = m)."""
    _check_int(m, "m")
    if m < 1:
        raise RangeError("chain_algebra needs at least one non-top element")
    n = m + 1
    if n > MAX_UNIVERSE:  # refused before building the n x n table
        raise SizeLimitError(f"universe size {n} exceeds cap {MAX_UNIVERSE}")
    table = [[n - 1 if i <= j else j for j in range(n)] for i in range(n)]
    return FiniteHilbertAlgebra.from_table(table)
