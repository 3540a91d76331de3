import itertools
import subprocess
import sys
from pathlib import Path

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
from hilbertalg.core import iter_bits, mask_str
from hilbertalg.errors import RangeError, UnboundVariableError
from hilbertalg.enumeration import all_posets, enumerate_hilbert, heyting_from_poset
from oracles import closure_by_rounds, satisfies_identity_by_eval_term

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

    def test_non_constant_diagonal(self):
        report = validate([[0, 1], [0, 1]])
        assert not report.ok
        assert any(axiom == "unit" for axiom, _ in report.violations)


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
