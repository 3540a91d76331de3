import copy
import dataclasses
import enum
import importlib
import itertools
import pickle
import pkgutil
import random
import re
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
    find_isomorphism,
    generated_subuniverse,
    satisfies_identity,
    subset_of,
    validate,
)
from hilbertalg.core import ValidationReport, iter_bits, mask_str
from hilbertalg.depth_terms import (
    ChainWitness,
    DepthReport,
    SubalgebraChainWitness,
    chain_from_counterexample,
    depth_leq_via_identity,
    subalgebra_from_chain,
    verify_main_theorem,
)
from hilbertalg.errors import RangeError, UnboundVariableError
from hilbertalg.enumeration import (
    HeytingAlgebra,
    Poset,
    all_posets,
    enumerate_hilbert,
    heyting_from_poset,
)
from hilbertalg.filters import (
    FilterLattice,
    SpectrumPoset,
    all_filters,
    meet_irreducibles,
)
from hilbertalg.quotient import Congruence, QuotientResult
from oracles import (
    closure_by_rounds,
    fan,
    satisfies_identity_by_eval_term,
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


class TestEvalTerm:
    def test_d0_is_projection(self, a2):
        assert eval_term(a2, d_term(0), [0]) == 0

    def test_d1_on_chain(self, chain3):
        assert eval_term(chain3, d_term(1), [0, 1]) == 1

    def test_d1_on_a2(self, a2):
        assert eval_term(a2, d_term(1), [0, 0]) == 1

    def test_unbound_variable(self, a2):
        with pytest.raises(UnboundVariableError):
            eval_term(a2, Var(2), [0, 1])


class TestSatisfiesIdentity:
    def test_a2_validates_d1(self, a2):
        assert satisfies_identity(a2, d_term(1)) == (True, None)

    def test_chain_fails_d1_least_counterexample(self, chain3):
        ok, cex = satisfies_identity(chain3, d_term(1))
        assert not ok
        assert cex == (0, 1)

    def test_chain_validates_d2(self, chain3):
        assert satisfies_identity(chain3, d_term(2))[0]

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

    def test_deep_term(self, trivial):
        # compiled without nesting, so depth is bounded only by recursion
        assert satisfies_identity(trivial, d_term(100)) == (True, None)


class TestGeneratedSubuniverse:
    def test_chain_examples(self, chain3):
        assert generated_subuniverse(chain3, subset_of([0, 1])) == subset_of([0, 1, 2])

    def test_empty_generates_top(self, chain3, fork):
        for A in (chain3, fork):
            assert generated_subuniverse(A, 0) == subset_of([A.top])

    def test_fork_single_generator(self, fork):
        assert generated_subuniverse(fork, subset_of([0])) == subset_of([0, 2])

    def test_closure_operator_laws(self, fork):
        U = fork.universe_mask()
        for X in range(U + 1):
            cx = generated_subuniverse(fork, X)
            assert X & cx == X
            assert generated_subuniverse(fork, cx) == cx
            for Y in range(U + 1):
                if X & Y == X:
                    assert cx & generated_subuniverse(fork, Y) == cx

    def test_same_as_rounds_on_every_subset(self):
        for n in range(1, 6):
            for A in enumerate_hilbert(n):
                for X in range(A.universe_mask() + 1):
                    assert generated_subuniverse(A, X) == closure_by_rounds(A, X)

    def test_same_as_rounds_on_poset_reducts(self):
        for k in range(5):
            for P in all_posets(k, up_to_iso=True):
                _, U = heyting_from_poset(P)
                for a, b in itertools.combinations(range(U.size), 2):
                    X = subset_of([a, b])
                    assert generated_subuniverse(U, X) == closure_by_rounds(U, X)


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


def test_mask_helpers():
    mask = subset_of([0, 3, 5])
    assert list(iter_bits(mask)) == [0, 3, 5]
    assert mask_str(mask) == "{0,3,5}"
    assert mask_str(mask, ["a", "b", "c", "d", "e", "f"]) == "{a,d,f}"


TWO = ((1, 1), (0, 1))  # the two-element algebra 0 < 1, top 1
TWO_REPR = "FiniteHilbertAlgebra(size=2, arrow=((1, 1), (0, 1)), top=1, names=None)"
CHAIN2 = ((True, True), (False, True))  # the poset 0 < 1
UP_CHAIN2 = ((2, 2, 2), (0, 2, 2), (0, 1, 2))  # its upset algebra's arrow


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
    P = Poset(2, CHAIN2)
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
            FilterLattice,
            ("algebra", "filters"),
            (A, (2, 3)),
            (A, (3,)),
            f"FilterLattice(algebra={TWO_REPR}, filters=(2, 3))",
        ),
        (
            SpectrumPoset,
            ("algebra", "filters"),
            (A, (2,)),
            (A, ()),
            f"SpectrumPoset(algebra={TWO_REPR}, filters=(2,))",
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
            ("algebra", "depth", "rows", "counterexamples"),
            (A, 1, rows, {0: (0,)}),
            (A, 1, rows, {0: (1,)}),
            f"DepthReport(algebra={TWO_REPR}, depth=1, rows=((0, False, False, True),"
            " (1, True, True, True)), counterexamples={0: (0,)})",
        ),
        (
            ChainWitness,
            ("algebra", "filters"),
            (A, (2,)),
            (A, (3,)),
            f"ChainWitness(algebra={TWO_REPR}, filters=(2,))",
        ),
        (
            SubalgebraChainWitness,
            ("algebra", "elements"),
            (A, (0,)),
            (A, (1,)),
            f"SubalgebraChainWitness(algebra={TWO_REPR}, elements=(0,))",
        ),
        (
            Poset,
            ("size", "leq"),
            (2, CHAIN2),
            (2, ((True, False), (False, True))),
            "Poset(size=2, leq=((True, True), (False, True)))",
        ),
        (
            HeytingAlgebra,
            ("poset", "carrier", "arrow", "top", "bottom"),
            (P, (0, 2, 3), UP_CHAIN2, 2, 0),
            (P, (0, 2, 3), UP_CHAIN2, 2, 1),
            "HeytingAlgebra(poset=Poset(size=2, leq=((True, True), (False, True))),"
            " carrier=(0, 2, 3), arrow=((2, 2, 2), (0, 2, 2), (0, 1, 2)),"
            " top=2, bottom=0)",
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


each_value_type = pytest.mark.parametrize(
    "case", VALUE_TYPE_CASES, ids=[case.cls.__name__ for case in VALUE_TYPE_CASES]
)


class TestValueTypes:
    """The 13 value types are immutable, and compare, hash and print by
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

    def test_lattice_never_equals_spectrum(self):
        A = chain_algebra(2)
        filters = meet_irreducibles(A).filters
        lattice, spectrum = FilterLattice(A, filters), SpectrumPoset(A, filters)
        chain = ChainWitness(A, filters)
        assert lattice != spectrum and spectrum != lattice
        assert spectrum != chain and chain != spectrum
        assert hash(lattice) == hash(spectrum) == hash(chain)
        assert len({lattice, spectrum, chain}) == 3

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
        memos = {"_filter_lattice", "_spectrum", "_d_ladder"}
        assert set(vars(A)) == {"size", "arrow", "top", "names"}
        before = (repr(A), hash(A))
        meet_irreducibles(A)
        assert memos & set(vars(A)) == {"_spectrum"}
        all_filters(A)
        assert memos & set(vars(A)) == {"_spectrum", "_filter_lattice"}
        depth_leq_via_identity(A, 1)
        assert memos <= set(vars(A))
        assert (repr(A), hash(A)) == before and A == chain_algebra(3)

    def test_no_code_compiled_at_import(self):
        """Every method of a hilbertalg class is compiled from its module's
        file: none is generated as source text and compiled with exec, as
        @dataclass(frozen=True) does for six methods of each class."""
        modules = [hilbertalg] + [
            importlib.import_module(f"hilbertalg.{info.name}")
            for info in pkgutil.iter_modules(hilbertalg.__path__)
        ]
        checked, compiled_elsewhere = 0, []
        for module in modules:
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
