"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

All checks are exhaustive at the stated sizes and exact (no numeric
tolerances anywhere in this domain).
"""

import itertools

import pytest

from hilbertalg import (
    FiniteHilbertAlgebra,
    all_filters,
    all_posets,
    chain_from_counterexample,
    correspondence_check,
    d_term,
    depth_leq_via_identity,
    enumerate_hilbert,
    eval_term,
    fg_closure,
    find_isomorphism,
    heyting_from_poset,
    meet_irreducibles,
    reduct_depth_vs_poset,
    separate,
    subalgebra_from_chain,
    subset_of,
    validate,
    verify_main_theorem,
)
from hilbertalg.core import axioms_hold, bit, generated_subuniverse
from oracles import (
    fg_formula_member,
    fg_with_extra,
    fg_with_extra_member,
    is_meet_prime,
    join,
)

MAX_SIZE = 5
MAX_N = 4


@pytest.fixture(scope="module")
def algebras():
    return {n: enumerate_hilbert(n) for n in range(1, MAX_SIZE + 1)}


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_main_theorem_exhaustive(algebras):
    """depth(A) <= n iff A |= d_n = 1, every algebra <= 5, every n <= 4."""
    disagreements = 0
    for size in range(1, MAX_SIZE + 1):
        for A in algebras[size]:
            report = verify_main_theorem(A, MAX_N)
            if not report.all_agree:
                disagreements += 1
    assert disagreements == 0
    _report("main theorem (<=5 elements, n<=4)")


def test_filter_generation_oracles(algebras):
    """Formula-based membership agrees exactly with iterative closure."""
    for size in range(1, 5):
        for A in algebras[size]:
            U = A.universe_mask()
            for X in range(U + 1):
                closure = fg_closure(A, X)
                for a in range(A.size):
                    assert fg_formula_member(A, X, a) == bool(closure >> a & 1)
                for c in range(A.size):
                    extra = fg_with_extra(A, X, c)
                    assert extra == fg_closure(A, X | bit(c))
                    for a in range(A.size):
                        assert fg_with_extra_member(A, X, c, a) == bool(
                            extra >> a & 1
                        )
    _report("filter-generation oracle equivalence (<=4 elements)")


def test_lattice_laws(algebras):
    """Fi(A) is distributive; meet-irreducible = meet-prime extensionally."""
    for size in range(1, 5):
        for A in algebras[size]:
            L = all_filters(A)
            for G in L.filters:
                for H in L.filters:
                    for K in L.filters:
                        assert G & join(A, H, K) == join(A, G & H, G & K)
            irreducible = set(meet_irreducibles(A).filters)
            prime = {F for F in L.filters if is_meet_prime(L, F)}
            assert irreducible == prime
    _report("lattice laws (<=4 elements)")


def test_correspondence(algebras):
    """h : [F, A] -> Fi(A/F) is an inclusion isomorphism for every filter."""
    for size in range(1, 5):
        for A in algebras[size]:
            for F in all_filters(A).filters:
                _, ok = correspondence_check(A, F)
                assert ok
    _report("correspondence theorem (<=4 elements)")


def test_separation(algebras):
    """separate is sound, and a !<= b splits through the spectrum."""
    for size in range(1, MAX_SIZE + 1):
        for A in algebras[size]:
            spectrum = set(meet_irreducibles(A).filters)
            for F in all_filters(A).filters:
                for a in range(A.size):
                    if F >> a & 1:
                        continue
                    G = separate(A, F, a)
                    assert G in spectrum and G & F == F and not G >> a & 1
            for a in range(A.size):
                for b in range(A.size):
                    if not A.leq(a, b):
                        assert any(
                            F >> a & 1 and not F >> b & 1 for F in spectrum
                        )
    _report("separation (<=5 elements)")


def test_proof_procedures(algebras):
    """Each failing d_n yields a strict spectrum chain, and the chain yields
    a chain subuniverse realizing d_i(a_0..a_i) = a_i."""
    checked = 0
    for size in range(1, MAX_SIZE + 1):
        for A in algebras[size]:
            spectrum = set(meet_irreducibles(A).filters)
            for n in range(MAX_N + 1):
                ok, cex = depth_leq_via_identity(A, n)
                if ok:
                    continue
                witness = chain_from_counterexample(A, cex, n)
                fs = witness.filters
                assert len(fs) == n + 1
                assert all(F in spectrum for F in fs)
                for F, G in zip(fs, fs[1:]):
                    assert F & G == F and F != G
                sub = subalgebra_from_chain(A, witness)
                es = sub.elements
                assert len(es) == n + 1
                assert not fs[0] >> es[-1] & 1
                for a, b in zip(es, es[1:]):
                    assert A.leq(a, b) and a != b
                closed = subset_of(es) | bit(A.top)
                assert generated_subuniverse(A, closed) == closed
                for i in range(n + 1):
                    assert eval_term(A, d_term(i), es[: i + 1]) == es[i]
                checked += 1
    assert checked > 0
    _report(f"proof procedures ({checked} failing (algebra,n) pairs)")


def test_heyting_corollary():
    """Upset-algebra reduct depth equals the poset's longest chain."""
    for k in range(7):
        for P in all_posets(k, up_to_iso=True):
            d, chain, agree = reduct_depth_vs_poset(P)
            assert agree, (P.leq, d, chain)
            _, reduct = heyting_from_poset(P)
            assert verify_main_theorem(reduct, 6).all_agree
    _report("Heyting corollary (posets <= 6 elements, n<=6)")


def test_enumeration_sanity(algebras):
    """Counts 1, 1, 2 at sizes 1-3 against the subset brute-force oracle;
    every emitted algebra valid; pairwise non-isomorphic."""
    for n, expected in ((1, 1), (2, 1), (3, 2)):
        oracle = []
        for flat in itertools.product(range(n), repeat=n * n):
            table = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            if not axioms_hold(table, n, table[0][0]):
                continue
            A = FiniteHilbertAlgebra.from_table(table)
            if not any(find_isomorphism(A, B) for B in oracle):
                oracle.append(A)
        assert len(oracle) == expected
        assert len(algebras[n]) == expected
    for size in range(1, MAX_SIZE + 1):
        emitted = algebras[size]
        for A in emitted:
            assert validate([list(r) for r in A.arrow]).ok
        for i, A in enumerate(emitted):
            for B in emitted[i + 1 :]:
                assert find_isomorphism(A, B) is None
    _report("enumeration sanity (1, 1, 2; all valid; pairwise non-isomorphic)")
