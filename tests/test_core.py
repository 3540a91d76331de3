import ast
import copy
import dataclasses
import enum
import hashlib
import importlib
import itertools
import pickle
import os
import pkgutil
import random
import re
import runpy
import shutil
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import pytest

import hilbertalg

from hilbertalg import (
    FiniteHilbertAlgebra,
    Imp,
    Var,
    chain_algebra,
    d_term,
    eval_term,
    fg_closure,
    satisfies_identity,
    subset_of,
    validate,
)
from hilbertalg.cli import main
from hilbertalg.core import (
    MAX_UNIVERSE,
    ValidationReport,
    _Frozen,
    _marks,
    _term_source,
    iter_bits,
    mask_str,
    term_width,
)
from hilbertalg.depth_terms import (
    ChainWitness,
    DepthReport,
    SubalgebraChainWitness,
    _d_values,
    _ladder,
    chain_from_counterexample,
    depth_leq_via_identity,
    subalgebra_from_chain,
    verify_main_theorem,
)
from hilbertalg.errors import RangeError, UnboundVariableError
from hilbertalg.enumeration import (
    Poset,
    all_posets,
    enumerate_hilbert,
    heyting_from_poset,
)
from hilbertalg.filters import (
    _build_spectrum,
    _class_leaders,
    all_filters,
    meet_irreducibles,
)
from hilbertalg.quotient import Congruence, QuotientResult
from oracles import (
    closure_by_rounds,
    failure_sets_by_definition,
    fan,
    find_isomorphism,
    g_table_by_cells,
    is_mp_closed,
    satisfies_identity_by_eval_term,
    theta_by_cells,
    validate_by_cells,
)

# 3-chain 0 < a < 1 with the non-Goedel cell a -> 0 = a
BAD_CHAIN = [[2, 2, 2], [1, 2, 2], [0, 1, 2]]


class TestValidate:
    def test_two_element_classical(self):
        assert validate([[1, 1], [0, 1]]).ok

    def test_trivial(self):
        assert validate([[0]]).ok

    def test_bad_chain_violates_s_at_aa0(self):
        report = validate(BAD_CHAIN)
        assert not report.ok
        assert ("S", (1, 1, 0)) in report.violations

    def test_out_of_range_entry(self):
        with pytest.raises(RangeError):
            validate([[1, 3], [0, 1]])

    def test_bool_entries_rejected(self):
        # True == 1 and False == 0 in Python, so only an explicit check
        # keeps JSON true/false out of a table
        with pytest.raises(RangeError):
            validate([[True, True], [False, True]])

    def test_ragged_row(self):
        with pytest.raises(RangeError):
            validate([[1, 1], [0]])

    def test_repeated_names_refused(self):
        chain3 = [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
        for names in (["a", "a", "1"], ["0", 1, "1"]):
            with pytest.raises(RangeError, match="^names must be distinct, '[a1]' is repeated$"):
                FiniteHilbertAlgebra.from_table(chain3, names=names)
        assert FiniteHilbertAlgebra.from_table(chain3, names=["0", "a", "1"]).names == ("0", "a", "1")

    @pytest.mark.parametrize("name", ["a,b", " a", "a ", ""])
    def test_names_that_cannot_name_an_element_refused(self, name):
        chain3 = [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
        with pytest.raises(RangeError, match="^names must be non-empty, hold no comma"):
            FiniteHilbertAlgebra.from_table(chain3, names=["x", name, "1"])

    @pytest.mark.parametrize("names", [["0", "a", "1"], ["x", "y", "1"], ['a\\"', "b\\", '"c']])
    def test_names_accepted(self, names):
        chain3 = [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
        assert FiniteHilbertAlgebra.from_table(chain3, names=names).names == tuple(names)

    def test_non_constant_diagonal(self):
        report = validate([[0, 1], [0, 1]])
        assert not report.ok
        assert any(axiom == "unit" for axiom, _ in report.violations)


class Element(enum.IntEnum):
    ZERO = 0
    ONE = 1


class TestCheckEntries:
    """A row that fails the C-level test is scanned entry by entry: the
    error names its first bad entry, and int subclasses pass."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "entry [1][1] = True out of range [0,3)"),
            (1.0, "entry [1][1] = 1.0 out of range [0,3)"),
            ("1", "entry [1][1] = '1' out of range [0,3)"),
            (-1, "entry [1][1] = -1 out of range [0,3)"),
            (3, "entry [1][1] = 3 out of range [0,3)"),
        ],
    )
    def test_first_bad_entry_message(self, bad, message):
        table = [[2, 2, 2], [0, bad, 7], [0, 1, 2]]
        with pytest.raises(RangeError, match=re.escape(message)):
            validate(table)

    def test_int_subclass_accepted(self):
        table = [[Element.ONE, Element.ONE], [Element.ZERO, Element.ONE]]
        assert validate(table).ok
        assert validate([[1, Element.ONE], [0, 1]]).ok


def _mutations(table, rng):
    """The table, one copy with a diagonal cell changed, and one copy
    each with 1, 2 and 3 random cells changed."""
    n = len(table)
    out = [table]
    if n > 1:
        copy = [row[:] for row in table]
        a = rng.randrange(n)
        copy[a][a] = rng.choice([v for v in range(n) if v != table[a][a]])
        out.append(copy)
    for cells in (1, 2, 3):
        copy = [row[:] for row in table]
        for _ in range(cells):
            copy[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        out.append(copy)
    return out


class TestValidateSameAsCellScan:
    """validate's report, violations and their order included, equals a
    scan of every cell (a, b, c)."""

    def test_every_table_up_to_three(self):
        for n in (1, 2, 3):
            for flat in itertools.product(range(n), repeat=n * n):
                table = [list(flat[a * n : (a + 1) * n]) for a in range(n)]
                assert validate(table) == validate_by_cells(table), table

    def test_algebras_and_mutations(self):
        rng = random.Random(10)
        algebras = [A for n in range(1, 6) for A in enumerate_hilbert(n)]
        algebras += [
            heyting_from_poset(P)[1] for k in range(6) for P in all_posets(k, True)
        ]
        algebras += [chain_algebra(m) for m in (4, 8, 16, 31, 63)] + [fan(63)]
        invalid = 0
        for A in algebras:
            for table in _mutations([list(row) for row in A.arrow], rng):
                report = validate(table)
                assert report == validate_by_cells(table), table
                invalid += not report.ok
        assert invalid > 3 * len(algebras)


class TestOrder:
    def test_leq_examples(self, a2):
        assert a2.leq(0, 1)
        assert not a2.leq(1, 0)
        assert a2.leq(0, 0) and a2.leq(1, 1)

    def test_partial_order_laws(self, chain3, fork):
        for A in (chain3, fork):
            n = A.size
            for a in range(n):
                assert A.leq(a, a)
                assert A.leq(a, A.top)
                for b in range(n):
                    if a != b:
                        assert not (A.leq(a, b) and A.leq(b, a))
                    for c in range(n):
                        if A.leq(a, b) and A.leq(b, c):
                            assert A.leq(a, c)


class TestByteMapKernel:
    """core._marks and the three builders that read masks back through
    it, at 64 elements, where a marked g string has 4,096 characters."""

    def test_builders_ignore_the_int_string_digit_limit(self):
        """Base 2 is exempt from the limit on int-string digits, so the
        builders agree with their oracles at its lowest value, 640."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for A in (chain_algebra(63), fan(63)):
                rows, sets = _ladder(A, A.size)
                assert [list(row) for row in rows] == g_table_by_cells(A)
                assert list(sets) == failure_sets_by_definition(A, len(sets) - 1)
                universe = A.universe_mask()
                # Diego: A - down(a) for each a != 1 that is a filter
                complements = {
                    universe & ~subset_of(x for x in range(A.size) if A.leq(x, a))
                    for a in range(A.size)
                    if a != A.top
                }
                spectrum = _build_spectrum(A)
                assert len(spectrum) == 63
                assert set(spectrum) == {U for U in complements if is_mp_closed(A, U)}
                for X in (0, 1 << 5 | 1 << 30, 0x5555 << 40, universe):
                    E = fg_closure(A, X)
                    blocks = theta_by_cells(A, E).blocks
                    assert _class_leaders(A, E) == subset_of(min(iter_bits(b)) for b in blocks)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_marks(self):
        assert len(_marks(0)) == 256 and set(_marks(0)) == {ord("0")}
        marks = _marks(1 << 255 | 0b101)
        assert [i for i, m in enumerate(marks) if m == ord("1")] == [0, 2, 255]
        assert int(bytes([2, 7, 0, 255]).translate(marks)[::-1], 2) == 0b1101


class TestEvalTerm:
    def test_d0_is_projection(self, a2):
        assert eval_term(a2, d_term(0), [0]) == 0

    def test_d1_on_chain(self, chain3):
        assert eval_term(chain3, d_term(1), [0, 1]) == 1

    def test_d1_on_a2(self, a2):
        assert eval_term(a2, d_term(1), [0, 0]) == 1

    def test_unbound_variable(self, a2):
        """The first unbound variable reading left to right is named."""
        for t, named in (
            (Var(2), "x2"),
            (Imp(Var(3), Imp(Var(1), Var(5))), "x3"),
            (Imp(Imp(Var(0), Var(7)), Var(5)), "x7"),
            (Imp(Var(1), Imp(Var(0), Var(4))), "x4"),
        ):
            message = f"^{named} unbound in assignment of length 2$"
            with pytest.raises(UnboundVariableError, match=message):
                eval_term(a2, t, [0, 1])

    def test_terms_of_any_depth(self):
        """A term is walked with a stack, not by recursion: both of these
        raised RecursionError on a term 400 levels deep."""
        A, t = chain_algebra(3), d_term(400)
        assert term_width(t) == 401
        assert eval_term(A, t, (0,) * 401) == _d_values(A, (0,) * 401, 400)[-1] == 3

    def test_non_terms_refused(self):
        """Each of these raised AttributeError, or built an Imp that was
        no term."""
        A = chain_algebra(3)
        with pytest.raises(RangeError, match="^Imp operands must be terms$"):
            eval_term(A, Imp(Var(0), 3), (0,))
        with pytest.raises(RangeError, match="^Imp operands must be terms$"):
            satisfies_identity(A, Imp(Var(0), "x"))
        with pytest.raises(RangeError, match="^Imp operands must be terms$"):
            Imp(None, Var(0))
        with pytest.raises(RangeError, match="^Imp operands must be terms$"):
            dataclasses.replace(Imp(Var(0), Var(1)), left=3)
        with pytest.raises(RangeError, match="^a term must be a Var or an Imp$"):
            eval_term(A, 3, (0,))
        with pytest.raises(RangeError, match="^a term must be a Var or an Imp$"):
            satisfies_identity(A, "x")
        with pytest.raises(RangeError, match="^a term must be a Var or an Imp$"):
            term_width(None)

    def test_entries_that_are_not_elements(self):
        """An entry outside the universe used to index the table from its
        end: x0 = -1 gave -1, and d_2 at (-1, -2, -3) gave the top."""
        A = chain_algebra(3)
        for t, assignment, named in (
            (Var(0), (-1,), "x0 = -1 "),
            (d_term(2), (-1, -2, -3), "x0 = -1 "),
            (d_term(1), (0, 4), "x1 = 4 "),
            (Var(0), (0, "1"), "x1 = '1' "),
            (Var(0), (True,), "x0 = True "),
        ):
            with pytest.raises(RangeError, match=f"^{named}out of range \\[0,4\\)$"):
                eval_term(A, t, assignment)

    @pytest.mark.parametrize(
        "index, message",
        [(-1, "at least 0"), (-7, "at least 0"), (2.5, "an int"), ("0", "an int"), (None, "an int")],
    )
    def test_variable_index_must_be_an_int_at_least_0(self, index, message):
        """Var(-1) used to read the last entry of an assignment."""
        with pytest.raises(RangeError, match=f"^variable index must be {message}$"):
            Var(index)
        with pytest.raises(RangeError, match=f"^variable index must be {message}$"):
            dataclasses.replace(Var(0), index=index)
        # a bool is an int: x_True is x1
        assert Var(True) == Var(1)
        assert eval_term(chain_algebra(3), Var(True), (0, 2)) == 2


class TestSatisfiesIdentity:
    def test_a2_validates_d1(self, a2):
        assert satisfies_identity(a2, d_term(1)) == (True, None)

    def test_chain_fails_d1_least_counterexample(self, chain3):
        ok, cex = satisfies_identity(chain3, d_term(1))
        assert not ok
        assert cex == (0, 1)

    def test_chain_validates_d2(self, chain3):
        assert satisfies_identity(chain3, d_term(2))[0]

    def test_negative_variable_refused_before_compiling(self):
        """x-1 used to compile as x - 1 and raise NameError."""
        with pytest.raises(RangeError, match="^variable index must be at least 0$"):
            satisfies_identity(chain_algebra(3), Imp(Var(0), Var(-1)))

    def test_agrees_with_eval_term_scan(self, a2, chain3, fork):
        x0, x1, x2 = Var(0), Var(1), Var(2)
        terms = [
            x0,
            x2,  # x0 and x1 range too, unused
            Imp(x1, x1),
            Imp(x0, Imp(x1, x0)),  # K
            Imp(Imp(x0, Imp(x1, x2)), Imp(Imp(x0, x1), Imp(x0, x2))),  # S
            Imp(Imp(x0, x1), x0),
            Imp(Imp(Imp(x0, x1), x0), x0),  # Peirce: fails off Boolean algebras
            d_term(3),
        ]
        for A in (a2, chain3, fork, chain_algebra(4)):
            for t in terms:
                assert satisfies_identity(A, t) == satisfies_identity_by_eval_term(A, t)

    def test_term_source_unchanged(self):
        """The compiled source of the terms of test_agrees_with_eval_term_scan
        and of d_0..d_8 is the one the recursive emitter wrote, numbering
        t0, t1, ... alike; the digest was taken from that emitter."""
        x0, x1, x2 = Var(0), Var(1), Var(2)
        terms = [
            x0,
            x2,
            Imp(x1, x1),
            Imp(x0, Imp(x1, x0)),
            Imp(Imp(x0, Imp(x1, x2)), Imp(Imp(x0, x1), Imp(x0, x2))),
            Imp(Imp(x0, x1), x0),
            Imp(Imp(Imp(x0, x1), x0), x0),
            d_term(3),
        ] + [d_term(n) for n in range(9)]
        text = "\n\n".join(map(_term_source, terms))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ab6f57fddb0d4c129aa86db85f6852c2e547f9e9a5471f97fdfdff73c9acb51d"
        )
        assert _term_source(d_term(1)) == (
            "def term(x0, x1):\n"
            "    t0 = arrow[x1][x0]\n"
            "    t1 = arrow[t0][x1]\n"
            "    t2 = arrow[t1][x1]\n"
            "    return t2"
        )

    def test_deep_term(self, trivial):
        # compiled without nesting from a walk with a stack; d_400 raised
        # RecursionError while the term was walked by recursion
        for n in (100, 400):
            assert satisfies_identity(trivial, d_term(n)) == (True, None)


class TestGeneratedSubuniverse:
    """The closure_by_rounds oracle, which the witness tests use to check
    that a subuniverse is closed, on small examples and the closure laws."""

    def test_chain_examples(self, chain3):
        assert closure_by_rounds(chain3, subset_of([0, 1])) == subset_of([0, 1, 2])

    def test_empty_generates_top(self, chain3, fork):
        for A in (chain3, fork):
            assert closure_by_rounds(A, 0) == subset_of([A.top])

    def test_fork_single_generator(self, fork):
        assert closure_by_rounds(fork, subset_of([0])) == subset_of([0, 2])

    def test_closure_operator_laws(self, fork):
        U = fork.universe_mask()
        for X in range(U + 1):
            cx = closure_by_rounds(fork, X)
            assert X & cx == X
            assert closure_by_rounds(fork, cx) == cx
            for Y in range(U + 1):
                if X & Y == X:
                    assert cx & closure_by_rounds(fork, Y) == cx


class TestIsomorphism:
    def test_identity(self, a2):
        assert find_isomorphism(a2, a2) == (0, 1)

    def test_chain_vs_fork(self, chain3, fork):
        assert find_isomorphism(chain3, fork) is None

    def test_relabeled_chain(self, chain3):
        # swap indices 0 and 1
        swap = [1, 0, 2]
        table = [[0] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                table[swap[a]][swap[b]] = swap[chain3.arrow[a][b]]
        B = FiniteHilbertAlgebra.from_table(table)
        assert find_isomorphism(B, chain3) == (1, 0, 2)

    def test_symmetry(self, chain3, fork):
        for A, B in ((chain3, fork), (fork, chain3)):
            assert (find_isomorphism(A, B) is None) == (find_isomorphism(B, A) is None)


class TestChainAlgebra:
    def test_smallest_is_a2(self, a2):
        assert chain_algebra(1).arrow == a2.arrow

    def test_three_chain_is_goedel(self, chain3):
        assert chain_algebra(2).arrow == ((2, 2, 2), (0, 2, 2), (0, 1, 2))
        assert validate([list(r) for r in chain3.arrow]).ok

    def test_d_terms_evaluate_to_last_element(self):
        A = chain_algebra(3)
        for i in range(3):
            assignment = tuple(range(i + 1))
            assert eval_term(A, d_term(i), assignment) == i

    def test_needs_one_element(self):
        with pytest.raises(RangeError):
            chain_algebra(0)

    @pytest.mark.parametrize("m", [2.5, "3", None])
    def test_m_must_be_an_int(self, m):
        with pytest.raises(RangeError, match="^m must be an int$"):
            chain_algebra(m)
        assert chain_algebra(True) == chain_algebra(1)


@pytest.mark.parametrize(
    "call",
    [
        "heyting_from_poset(Poset(40, tuple(tuple(a == b for b in range(40)) for a in range(40))))",
        "chain_algebra(10**6)",
    ],
    ids=["antichain-40", "chain-10**6"],
)
def test_refused_past_the_cap_before_the_table(call):
    """An algebra with more than MAX_UNIVERSE elements raises
    SizeLimitError before its table is built.  Building the table first
    took seconds on a 12-point antichain and would fill 4.3e9 cells on 16,
    so the call runs in a subprocess with a timeout and a 1 GiB address
    space: a regression fails instead of hanging or exhausting memory."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from hilbertalg import Poset, chain_algebra, heyting_from_poset\n"
        "from hilbertalg.errors import SizeLimitError\n"
        "try:\n"
        f"    {call}\n"
        "except SizeLimitError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(hilbertalg.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith(f"exceeds cap {MAX_UNIVERSE}\n")


def test_mask_helpers():
    mask = subset_of([0, 3, 5])
    assert list(iter_bits(mask)) == [0, 3, 5]
    assert mask_str(mask) == "{0,3,5}"
    assert mask_str(mask, ["a", "b", "c", "d", "e", "f"]) == "{a,d,f}"


TWO = ((1, 1), (0, 1))  # the two-element algebra 0 < 1, top 1
TWO_REPR = "FiniteHilbertAlgebra(size=2, arrow=((1, 1), (0, 1)), top=1, names=None)"
CHAIN2 = ((True, True), (False, True))  # the poset 0 < 1


class ValueTypeCase(NamedTuple):
    """A value type, its fields in order, the arguments of two unequal
    values, and the first value's repr as @dataclass(frozen=True) prints it."""

    cls: type
    names: tuple
    args: tuple
    other_args: tuple
    repr: str


def _value_type_cases():
    A = FiniteHilbertAlgebra(2, TWO, 1)
    rows = ((0, False, False, True), (1, True, True, True))
    cases = [
        (Var, ("index",), (0,), (1,), "Var(index=0)"),
        (
            Imp,
            ("left", "right"),
            (Var(0), Var(1)),
            (Var(1), Var(0)),
            "Imp(left=Var(index=0), right=Var(index=1))",
        ),
        (
            ValidationReport,
            ("size", "violations"),
            (2, ()),
            (2, (("unit", (0,)),)),
            "ValidationReport(size=2, violations=())",
        ),
        (
            FiniteHilbertAlgebra,
            ("size", "arrow", "top", "names"),
            (2, TWO, 1, None),
            (2, TWO, 1, ("a", "b")),
            TWO_REPR,
        ),
        (
            Congruence,
            ("blocks", "class_of"),
            ((1, 2), (0, 1)),
            ((3,), (0, 0)),
            "Congruence(blocks=(1, 2), class_of=(0, 1))",
        ),
        (
            QuotientResult,
            ("algebra", "projection"),
            (A, (0, 1)),
            (A, (1, 1)),
            f"QuotientResult(algebra={TWO_REPR}, projection=(0, 1))",
        ),
        (
            DepthReport,
            ("depth", "rows", "counterexamples"),
            (1, rows, {0: (0,)}),
            (1, rows, {0: (1,)}),
            "DepthReport(depth=1, rows=((0, False, False, True),"
            " (1, True, True, True)), counterexamples={0: (0,)})",
        ),
        (ChainWitness, ("filters",), ((2,),), ((3,),), "ChainWitness(filters=(2,))"),
        (
            SubalgebraChainWitness,
            ("elements",),
            ((0,),),
            ((1,),),
            "SubalgebraChainWitness(elements=(0,))",
        ),
        (
            Poset,
            ("size", "leq"),
            (2, CHAIN2),
            (2, ((True, False), (False, True))),
            "Poset(size=2, leq=((True, True), (False, True)))",
        ),
    ]
    return [ValueTypeCase(*case) for case in cases]


VALUE_TYPE_CASES = _value_type_cases()


def _class_functions(cls):
    """(name, function) for each function in cls's own dict, unwrapped from
    cached_property, property, staticmethod and classmethod."""
    for name, attr in vars(cls).items():
        if isinstance(attr, cached_property):
            attr = attr.func
        elif isinstance(attr, property):
            attr = attr.fget
        elif isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if isinstance(attr, types.FunctionType):
            yield name, attr


def _package_modules():
    """hilbertalg and each of its modules."""
    return [hilbertalg] + [
        importlib.import_module(f"hilbertalg.{info.name}")
        for info in pkgutil.iter_modules(hilbertalg.__path__)
    ]


each_value_type = pytest.mark.parametrize(
    "case", VALUE_TYPE_CASES, ids=[case.cls.__name__ for case in VALUE_TYPE_CASES]
)


class TestValueTypes:
    """The 10 value types are immutable, and compare, hash and print by
    their fields, exactly as @dataclass(frozen=True) made them."""

    @each_value_type
    def test_fields_and_construction(self, case):
        cls, names, args = case.cls, case.names, case.args
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert cls.__match_args__ == names
        assert dataclasses.is_dataclass(cls)
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert by_position == by_keyword
        assert tuple(getattr(by_keyword, name) for name in names) == args
        with pytest.raises(TypeError):
            cls(*args, None)

    @each_value_type
    def test_equality_and_hash(self, case):
        cls, args = case.cls, case.args
        value, same = cls(*args), cls(*copy.deepcopy(args))
        other = cls(*case.other_args)
        assert value == same and not value != same
        assert value != other and not value == other
        assert value != args and value.__eq__(args) is NotImplemented
        if cls is DepthReport:  # its counterexamples are a dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(same) == hash(args)
            assert len({value, same, other}) == 2

    @each_value_type
    def test_repr(self, case):
        assert repr(case.cls(*case.args)) == case.repr

    @each_value_type
    def test_frozen(self, case):
        value = case.cls(*case.args)
        for name in case.names + ("not_a_field",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert value == case.cls(*case.args)

    @each_value_type
    def test_pickle_and_deepcopy(self, case):
        value = case.cls(*case.args)
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is case.cls and twin == value and repr(twin) == case.repr

    def test_defaults(self):
        defaults = {
            case.cls: [
                (f.name, f.default)
                for f in dataclasses.fields(case.cls)
                if f.default is not dataclasses.MISSING
            ]
            for case in VALUE_TYPE_CASES
        }
        assert defaults.pop(FiniteHilbertAlgebra) == [("names", None)]
        assert not any(defaults.values())
        assert FiniteHilbertAlgebra(2, TWO, 1).names is None
        assert FiniteHilbertAlgebra(2, TWO, 1) == FiniteHilbertAlgebra(2, TWO, 1, None)

    def test_every_value_type_is_listed(self):
        """The _Frozen subclasses defined in the package's modules are the
        classes of VALUE_TYPE_CASES, the types README's value-type sentence
        names, and as many as this class's docstring counts, so a type
        added or removed leaves neither the tests nor the docs behind."""
        defined = {
            cls
            for module in _package_modules()
            for cls in vars(module).values()
            if isinstance(cls, type)
            and issubclass(cls, _Frozen)
            and cls is not _Frozen
            and cls.__module__ == module.__name__
        }
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"The value types \((.*?)\)\s+are immutable", readme, flags=re.S)
        assert {case.cls for case in VALUE_TYPE_CASES} == defined
        assert set(re.findall(r"`(\w+)`", sentence[1])) == {cls.__name__ for cls in defined}
        assert TestValueTypes.__doc__.startswith(f"The {len(defined)} value types ")

    def test_two_types_never_compare_equal(self):
        elements = (0, 1)
        chain, sub = ChainWitness(elements), SubalgebraChainWitness(elements)
        assert chain != sub and sub != chain
        assert hash(chain) == hash(sub)
        assert len({chain, sub}) == 2

    def test_replace_as_the_corruption_demo_does(self):
        A = chain_algebra(2)
        report = verify_main_theorem(A, 2)
        cex = {0: (1,), 1: (0, 1)}
        corrupted = dataclasses.replace(report, counterexamples=cex)
        assert type(corrupted) is DepthReport
        assert corrupted.rows == report.rows and corrupted != report
        assert report.counterexamples == {0: (0,), 1: (0, 1)}
        _, cex = depth_leq_via_identity(A, 1)
        sub = subalgebra_from_chain(A, chain_from_counterexample(A, cex, 1))
        flipped = dataclasses.replace(sub, elements=sub.elements[::-1])
        assert type(flipped) is SubalgebraChainWitness
        assert flipped.elements == (1, 0) and sub.elements == (0, 1)
        assert dataclasses.asdict(flipped)["elements"] == (1, 0)

    def test_replace_checks_the_poset_order(self):
        P = Poset(2, CHAIN2)
        with pytest.raises(RangeError, match="antisymmetric"):
            dataclasses.replace(P, leq=((True, True), (True, True)))
        with pytest.raises(RangeError, match="reflexive"):
            Poset(size=2, leq=((False, True), (False, True)))
        antichain = dataclasses.replace(P, leq=((True, False), (False, True)))
        assert antichain.leq == ((True, False), (False, True))

    def test_memos_appear_only_after_first_use(self):
        A = FiniteHilbertAlgebra.from_table(chain_algebra(3).arrow)
        memos = {"_spectrum", "_d_ladder"}
        assert set(vars(A)) == {"size", "arrow", "top", "names"}
        before = (repr(A), hash(A))
        meet_irreducibles(A)
        assert memos & set(vars(A)) == {"_spectrum"}
        all_filters(A)  # read off the spectrum, and not kept
        assert set(vars(A)) == {"size", "arrow", "top", "names", "_spectrum"}
        depth_leq_via_identity(A, 1)
        assert memos <= set(vars(A))
        assert (repr(A), hash(A)) == before and A == chain_algebra(3)

    def test_no_code_compiled_at_import(self):
        """Every method of a hilbertalg class is compiled from its module's
        file: none is generated as source text and compiled with exec, as
        @dataclass(frozen=True) does for six methods of each class."""
        checked, compiled_elsewhere = 0, []
        for module in _package_modules():
            for cls in vars(module).values():
                if not isinstance(cls, type) or cls.__module__ != module.__name__:
                    continue
                for name, function in _class_functions(cls):
                    checked += 1
                    if function.__code__.co_filename != module.__file__:
                        compiled_elsewhere.append(f"{cls.__qualname__}.{name}")
        assert checked > 0
        assert compiled_elsewhere == []


REIMPORT = """
import gc, importlib, sys
sys.path.insert(0, sys.argv[1])
for _ in range(20):
    for name in [m for m in sys.modules if m == "hilbertalg" or m.startswith("hilbertalg.")]:
        del sys.modules[name]
    importlib.import_module("hilbertalg")
gc.collect()
print(sum(
    1 for o in gc.get_objects()
    if isinstance(o, dict) and o.get("__name__") == "hilbertalg.core" and "__builtins__" in o
))
"""


def test_reimport_frees_previous_modules():
    """A fresh import of the package must not keep the previous one alive
    (typing.Union's cache once held every import's Var class)."""
    src = str(Path(hilbertalg.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", REIMPORT, src],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert int(out.stdout) <= 2


def test_public_names_resolve():
    """Every entry of hilbertalg.__all__ is an attribute of the package,
    and none is listed twice, so `from hilbertalg import *` works."""
    names = hilbertalg.__all__
    assert [name for name in names if not hasattr(hilbertalg, name)] == []
    assert len(set(names)) == len(names)


def test_benchmark_traced_names_resolve():
    """Every function the benchmark's traced run wraps (perfbench/spans.py
    TRACED) is still on its module, so a trim of the library that would
    break `perfbench/run.py --trace 1` fails here.  spans.py is run from
    its path, without importing it as a module or writing bytecode."""
    root = Path(__file__).resolve().parents[1]
    traced = runpy.run_path(str(root / "perfbench" / "spans.py"))["TRACED"]
    for module, names in traced.items():
        mod = importlib.import_module(f"hilbertalg.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"hilbertalg.{module}.{name}"


def test_every_public_name_is_offered_used_or_traced():
    """Each name in hilbertalg.__all__ is offered in the README (as code:
    between backticks or in a fenced block), is loaded by code in a src
    module other than __init__.py outside the top-level definition that
    binds it, or is wrapped by the benchmark's traced run
    (perfbench/spans.py TRACED).  A docstring, a string or a
    self-recursion is no use.  A public name that passes none of the
    three belongs in tests/oracles.py."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`]+`", readme, flags=re.S)
    traced = runpy.run_path(str(root / "perfbench" / "spans.py"))["TRACED"]
    used = set()
    package = Path(hilbertalg.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            used |= {
                node.id
                for node in ast.walk(top)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id != own
            }
    unoffered = [
        name
        for name in hilbertalg.__all__
        if not any(re.search(rf"\b{name}\b", span) for span in spans)
        and name not in used
        and not any(name in names for names in traced.values())
    ]
    assert unoffered == []


def test_only_stdlib_imports():
    """The package has no runtime dependencies: every absolute import in
    src/hilbertalg names a module of the standard library."""
    package = Path(hilbertalg.__file__).resolve().parent
    outside = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source, feature_version=(3, 10))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def _python_floor() -> tuple:
    """The oldest Python that requires-python in pyproject.toml admits."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, flags=re.M)
    return tuple(map(int, found.groups()))


def test_sources_parse_at_the_python_floor():
    """Every module of the package parses with the grammar of the oldest
    Python that requires-python admits, so syntax that only a later
    version reads fails here."""
    floor = _python_floor()
    package = Path(hilbertalg.__file__).resolve().parent
    paths = sorted(package.rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_cli_runs_under_the_python_floor(capsys):
    """`hilbertalg verify --enumerate 5` under the oldest Python that
    requires-python admits, with every warning an error, prints what it
    prints here and exits alike.  Skipped when no working interpreter of
    that version is on PATH."""
    floor = _python_floor()
    name = "python%d.%d" % floor
    exe = shutil.which(name)
    if exe is not None:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(tuple(sys.version_info[:2]))"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    if exe is None or probe.returncode or probe.stdout != f"{floor}\n":
        pytest.skip(f"no working {name} on PATH")
    src = str(Path(hilbertalg.__file__).resolve().parents[1])
    argv = ["verify", "--enumerate", "5"]
    done = subprocess.run(
        [exe, "-B", "-W", "error", "-m", "hilbertalg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    code = main(argv)
    assert (done.returncode, done.stderr, done.stdout) == (code, "", capsys.readouterr().out)
