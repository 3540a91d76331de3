import importlib
import itertools
import json
import random
import re
import sys
import threading

import pytest

from hilbertalg import (
    ChainWitness,
    FiniteHilbertAlgebra,
    Imp,
    Poset,
    Var,
    all_filters,
    all_posets,
    chain_algebra,
    chain_from_counterexample,
    d_term,
    depth,
    depth_leq_via_identity,
    enumerate_hilbert,
    eval_term,
    heyting_from_poset,
    meet_irreducibles,
    quotient,
    satisfies_identity,
    separate,
    subalgebra_from_chain,
    subset_of,
    verify_main_theorem,
)
from hilbertalg import depth_terms, filters
from hilbertalg.core import bit
from hilbertalg.cli import main
from hilbertalg.depth_terms import _check_subalgebra, _d_values, _ladder
from hilbertalg.errors import (
    InternalInvariantError,
    PreconditionError,
    RangeError,
    UnboundVariableError,
)
from oracles import (
    capped_fan,
    chain_by_correspondence,
    closure_by_rounds,
    d_values_by_cells,
    depth_by_pairs,
    depth_by_strong_chains,
    failure_sets_by_definition,
    fan,
    g_table_by_cells,
    product,
    relabelled,
    strongly_below,
    subalgebra,
    upset_by_cells,
)


class TestDTerm:
    def test_d0(self):
        assert d_term(0) == Var(0)

    def test_d1(self):
        x0, x1 = Var(0), Var(1)
        assert d_term(1) == Imp(Imp(Imp(x1, x0), x1), x1)

    def test_d2_unfolds_d1(self):
        x2 = Var(2)
        assert d_term(2) == Imp(Imp(Imp(x2, d_term(1)), x2), x2)

    def test_variable_count(self):
        from hilbertalg.core import term_width

        for n in range(5):
            assert term_width(d_term(n)) == n + 1

    @pytest.mark.parametrize("n", [2.5, "3", None])
    def test_n_must_be_an_int(self, n):
        with pytest.raises(RangeError, match="^n must be an int$"):
            d_term(n)
        assert d_term(True) == d_term(1)


class TestDepthViaIdentity:
    def test_chain_fails_d1(self, chain3):
        assert depth_leq_via_identity(chain3, 1) == (False, (0, 1))

    def test_chain_passes_d2(self, chain3):
        assert depth_leq_via_identity(chain3, 2) == (True, None)

    def test_trivial_passes_d0(self, trivial):
        assert depth_leq_via_identity(trivial, 0) == (True, None)

    def test_monotone_in_n(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for k in range(4):
                    if depth_leq_via_identity(A, k)[0]:
                        assert depth_leq_via_identity(A, k + 1)[0]


class TestIdentityDecisionAgainstBruteForce:
    """The value-set procedure against the |A|^(n+1) scan of satisfies_identity."""

    def test_same_verdict_and_least_counterexample(self):
        algebras = [A for size in range(1, 6) for A in enumerate_hilbert(size)]
        algebras += [
            heyting_from_poset(P)[1] for k in range(5) for P in all_posets(k, up_to_iso=True)
        ]
        algebras += [chain_algebra(m) for m in range(1, 9)]
        for A in algebras:
            report = verify_main_theorem(A, 4)
            assert depth_leq_via_identity(A, -1) == satisfies_identity(A, d_term(-1))
            for n in range(5):
                expected = satisfies_identity(A, d_term(n))
                assert depth_leq_via_identity(A, n) == expected, (A.arrow, n)
                assert (report.rows[n][2], report.counterexamples.get(n)) == expected

    def test_chain_31_up_to_n12(self):
        A = chain_algebra(31)
        report = verify_main_theorem(A, 12)
        assert report.depth == 31
        assert report.rows == tuple((n, False, False, True) for n in range(13))
        for n, cex in report.counterexamples.items():
            assert cex == tuple(range(n + 1))
            assert eval_term(A, d_term(n), cex) != A.top

    def test_antichain_reduct_up_to_n12(self):
        antichain = Poset(size=4, leq=tuple(tuple(a == b for b in range(4)) for a in range(4)))
        A = heyting_from_poset(antichain)[1]
        assert A.size == 16
        report = verify_main_theorem(A, 12)
        assert report.depth == 1
        assert report.rows == ((0, False, False, True),) + tuple(
            (n, True, True, True) for n in range(1, 13)
        )
        assert list(report.counterexamples) == [0]
        assert eval_term(A, d_term(0), report.counterexamples[0]) != A.top


class TestVerifyMainTheorem:
    def test_fork(self, fork):
        report = verify_main_theorem(fork, 2)
        assert report.depth == 1
        assert [row[2] for row in report.rows] == [False, True, True]
        assert report.all_agree

    def test_chain4(self):
        A = chain_algebra(3)
        report = verify_main_theorem(A, 3)
        assert report.depth == 3
        assert report.counterexamples[2] == (0, 1, 2)
        # the least failing assignment evaluates d_2 to its last element
        assert eval_term(A, d_term(2), (0, 1, 2)) == 2
        assert report.rows[3][2] and report.all_agree

    def test_trivial(self, trivial):
        report = verify_main_theorem(trivial, 0)
        assert report.depth == 0
        assert report.rows == ((0, True, True, True),)

    def test_failure_sets_stop_at_first_empty(self, trivial, fork):
        for A in (trivial, fork, chain_algebra(3), chain_algebra(16), fan(6)):
            assert depth_leq_via_identity(A, 10**6) == (True, None)
            _, sets = A._d_ladder
            assert len(sets) == depth(A) + 1 <= A.size
            assert not sets[-1]
            report = verify_main_theorem(A, 40)
            assert len(report.rows) == 41 and report.all_agree


def ladder_set() -> list:
    """Every algebra with <= 5 elements, the reducts of posets with <= 5
    points and seeded relabellings of them, the chains up to 63 and the
    fans."""
    algebras = [A for size in range(1, 6) for A in enumerate_hilbert(size)]
    reducts = [
        heyting_from_poset(P)[1] for k in range(6) for P in all_posets(k, up_to_iso=True)
    ]
    rng = random.Random(41)
    algebras += reducts
    algebras += [relabelled(A, rng.sample(range(A.size), A.size)) for A in reducts * 2]
    algebras += [chain_algebra(m) for m in range(1, 64)]
    algebras += [fan(m) for m in range(1, 64)]
    algebras += [capped_fan(m) for m in range(1, 63)]
    return algebras


class TestLadder:
    """The d_n ladder kept on each algebra: the g table built a column at
    a time against the cell-by-cell one, and T_0 > T_1 > ... against the
    definition."""

    def test_against_the_cell_by_cell_table(self):
        for A in ladder_set():
            rows, sets = A._d_ladder
            g = g_table_by_cells(A)
            assert [list(row) for row in rows] == g, A.arrow
            assert list(sets) == failure_sets_by_definition(A, len(sets) - 1)
            assert all(T & S == T and T != S for S, T in zip(sets, sets[1:]))
            assert not sets[-1] and len(sets) == depth(A) + 1

    def test_depth_against_the_all_pairs_loop(self):
        for A in ladder_set():
            assert depth(A) == depth_by_pairs(A), A.arrow

    def test_d_values_against_the_cell_formula(self):
        """_d_values reads g off the ladder: every prefix of every failing
        assignment, on every algebra with <= 5 elements, against g folded
        cell by cell."""
        failing = 0
        for A in [A for size in range(1, 6) for A in enumerate_hilbert(size)]:
            for n in range(depth(A)):
                for v in itertools.product(range(A.size), repeat=n + 1):
                    values = d_values_by_cells(A, v)
                    if values[-1] != A.top:
                        failing += 1
                        for k in range(n + 1):
                            assert _d_values(A, v, k) == values[: k + 1], (A.arrow, v, k)
        assert failing == 193

    def test_step_check_fires_on_a_table_that_is_no_algebra(self):
        """The raw constructor skips validate.  With 3 -> 3 = 0 in the
        5-element chain, g(1, 3) = (1 -> 3) -> 3 = 3 -> 3 = 0 lies in T_0,
        so 1 lands in T_1, outside T_0: the first step fails its check,
        whether a bounded ladder or the kept one is built, and no ladder
        is kept."""
        table = [list(row) for row in chain_algebra(4).arrow]
        table[3][3] = 0
        A = FiniteHilbertAlgebra(size=5, arrow=tuple(map(tuple, table)), top=4)
        assert _ladder(A, 0)[1] == (0b01111,)
        with pytest.raises(InternalInvariantError, match=r"^T_\{j\+1\} is not inside T_j$"):
            _ladder(A, 1)
        with pytest.raises(InternalInvariantError, match=r"^T_\{j\+1\} is not inside T_j$"):
            A._d_ladder
        assert "_d_ladder" not in vars(A)

    def test_verify_grows_the_ladder_only_to_its_bound(self, monkeypatch):
        """verify_main_theorem(A, 4) computes T_0..T_4 of a 64-element
        chain and no more, and keeps none of it.  The whole ladder that
        depth_leq_via_identity keeps later starts with that prefix."""
        built = []

        def record(A, m):
            built.append(_ladder(A, m))
            return built[-1]

        monkeypatch.setattr(depth_terms, "_ladder", record)
        A = chain_algebra(63)
        verify_main_theorem(A, 4)
        [prefix] = built
        assert len(prefix[1]) == 5 and "_d_ladder" not in vars(A)
        assert depth_leq_via_identity(A, 10**6) == (True, None)
        whole = vars(A)["_d_ladder"]
        assert len(whole[1]) == 64 and whole[0] == prefix[0]
        assert whole[1][:5] == prefix[1]

    def test_every_bounded_ladder_is_a_prefix_of_the_whole_one(self):
        """_ladder(A, m) holds g and T_0..T_m of the kept ladder, or all of
        it where the whole ladder is shorter, for every m up to |A|."""
        for A in ladder_set():
            g, sets = A._d_ladder
            for m in range(A.size + 1):
                assert _ladder(A, m) == (g, sets[: m + 1]), (A.arrow, m)

    def test_verify_keeps_no_ladder_and_builds_only_to_its_bound(self, monkeypatch):
        """verify_main_theorem on a fresh instance asks for T_0..T_{n_max}
        alone and leaves no ladder on it, so its report depends only on
        the algebra and the bound."""
        asked = []

        def record(A, m):
            asked.append(m)
            return _ladder(A, m)

        monkeypatch.setattr(depth_terms, "_ladder", record)
        for A in ladder_set():
            for n_max in (0, 2, 4, 40):
                fresh = FiniteHilbertAlgebra(size=A.size, arrow=A.arrow, top=A.top)
                asked.clear()
                verify_main_theorem(fresh, n_max)
                assert asked == [n_max] and "_d_ladder" not in vars(fresh), A.arrow

    def test_results_do_not_depend_on_the_order_of_growth(self):
        """verify_main_theorem and depth_leq_via_identity give the same
        results on one instance whichever runs first, and the same as on
        fresh instances, for every bound."""
        ns = (-1, 0, 1, 2, 3, 5, 40, 10**6)
        for A in ladder_set():
            fresh = lambda: FiniteHilbertAlgebra(size=A.size, arrow=A.arrow, top=A.top)
            decisions = [depth_leq_via_identity(fresh(), n) for n in ns]
            for n_max in (0, 2, 4, 40):
                report = verify_main_theorem(fresh(), n_max)
                B, C = fresh(), fresh()
                assert verify_main_theorem(B, n_max) == report, (A.arrow, n_max)
                assert [depth_leq_via_identity(B, n) for n in ns] == decisions
                assert [depth_leq_via_identity(C, n) for n in ns] == decisions
                assert verify_main_theorem(C, n_max) == report, (A.arrow, n_max)

    def test_threads_growing_one_ladder(self):
        """Threads racing to build the ladders of shared algebras, switching
        every microsecond, get the results of fresh instances, and each
        ladder kept at the end is the whole one."""
        tables = [chain_algebra(40).arrow, capped_fan(30).arrow, fan(20).arrow]
        fresh = [FiniteHilbertAlgebra.from_table(t) for t in tables]
        whole = [_ladder(A, A.size) for A in fresh]
        bounds = (0, 1, 3, 7, 15, 40)
        reports = [[verify_main_theorem(A, k) for k in bounds] for A in fresh]
        decisions = [[depth_leq_via_identity(A, k) for k in bounds] for A in fresh]
        rounds = [[FiniteHilbertAlgebra.from_table(t) for t in tables] for _ in range(20)]
        barrier = threading.Barrier(8)
        faults = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for shared in rounds:
                    barrier.wait(timeout=60)
                    for i in rng.sample(range(len(tables)), len(tables)):
                        k = rng.randrange(len(bounds))
                        if verify_main_theorem(shared[i], bounds[k]) != reports[i][k]:
                            faults.append(("verify", i, bounds[k]))
                        if rng.random() < 0.2:
                            if depth_leq_via_identity(shared[i], bounds[k]) != decisions[i][k]:
                                faults.append(("identity", i, bounds[k]))
            except Exception as exc:  # recorded, so the test fails on it
                faults.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert faults == []
        kept = [
            (vars(A)["_d_ladder"], ladder)
            for shared in rounds
            for A, ladder in zip(shared, whole)
            if "_d_ladder" in vars(A)
        ]
        assert kept and all(ladder == expected for ladder, expected in kept)

    def test_bounds_must_be_ints_and_n_max_at_least_0(self):
        """A bound that is not an int, or an n_max below 0, is refused:
        n_max = -1 used to return no rows, which all_agree passed, and
        2.5 raised TypeError.  n <= 0 still means d_0."""
        A = chain_algebra(3)
        for n_max in (-1, -10**6):
            with pytest.raises(RangeError, match="^n_max must be at least 0$"):
                verify_main_theorem(A, n_max)
        for bad in (2.5, "3", None, 2.0):
            with pytest.raises(RangeError, match="^n_max must be an int$"):
                verify_main_theorem(A, bad)
            with pytest.raises(RangeError, match="^n must be an int$"):
                depth_leq_via_identity(A, bad)
        assert "_d_ladder" not in vars(A)
        assert depth_leq_via_identity(A, -5) == depth_leq_via_identity(A, 0) == (False, (0,))
        # a bool is an int
        assert verify_main_theorem(A, True) == verify_main_theorem(A, 1)
        assert depth_leq_via_identity(A, True) == depth_leq_via_identity(A, 1) == (False, (0, 1))

    def test_memo_leaves_equality_hash_and_repr(self):
        A, B = chain_algebra(5), chain_algebra(5)
        before = (repr(A), hash(A))
        ladder = A._d_ladder
        assert (repr(A), hash(A)) == before
        assert A == B and hash(A) == hash(B) and repr(A) == repr(B)
        assert "_d_ladder" in vars(A) and "_d_ladder" not in vars(B)
        assert A._d_ladder is ladder

    def test_one_instance_against_fresh_instances(self, fork):
        rng = random.Random(23)
        reducts = [heyting_from_poset(P)[1] for P in all_posets(5, up_to_iso=True)]
        tables = [fork.arrow, chain_algebra(6).arrow, capped_fan(4).arrow]
        tables += [A.arrow for A in rng.sample(reducts, 4)]
        for table in tables:
            fresh = lambda: FiniteHilbertAlgebra.from_table(table)
            A = fresh()
            ns = list(range(-1, 9)) + [10**6]
            rng.shuffle(ns)
            for n in ns:
                assert depth_leq_via_identity(A, n) == depth_leq_via_identity(fresh(), n)
            B = fresh()
            depth_leq_via_identity(B, 2)
            assert verify_main_theorem(B, 40) == verify_main_theorem(fresh(), 40)


class TestDepthIsEquational:
    """Birkhoff: an equational class is closed under subalgebras,
    homomorphic images and products, so depth <= n must be too."""

    def test_subalgebras_quotients_and_products(self):
        algebras = [A for size in range(1, 6) for A in enumerate_hilbert(size)]
        depths = [depth(A) for A in algebras]
        subuniverses = quotients = 0
        for A, d in zip(algebras, depths):
            for S in {closure_by_rounds(A, X) for X in range(1 << A.size)}:
                assert depth(subalgebra(A, S)) <= d, (A.arrow, S)
                subuniverses += 1
            for F in all_filters(A):
                assert depth(quotient(A, F).algebra) <= d, (A.arrow, F)
                quotients += 1
        products = 0
        for A, d in zip(algebras, depths):
            for B, e in zip(algebras, depths):
                assert depth(product(A, B)) == max(d, e), (A.arrow, B.arrow)
                products += 1
        assert (len(algebras), subuniverses, quotients, products) == (31, 372, 207, 961)


    def test_quotients_by_spectrum_points(self):
        """H through the spectrum: for every algebra with <= 6 elements and
        every point M of its spectrum, B = A/M is subdirectly irreducible,
        so B's spectrum has a least member; depth(A) is the largest
        depth(B) (0 with no M); and d_n holds on A iff it holds on every
        B, for n <= depth(A) + 1.  That is 542 pairs (A, M) and 566 pairs
        (A, n) over 126 algebras."""
        algebras = [A for size in range(1, 7) for A in enumerate_hilbert(size)]
        points = checks = 0
        for A in algebras:
            images = [quotient(A, M).algebra for M in meet_irreducibles(A)]
            d = depth(A)
            assert d == max(map(depth, images), default=0), A.arrow
            for B in images:
                spectrum = meet_irreducibles(B)
                assert any(all(L & M == L for M in spectrum) for L in spectrum), B.arrow
            for n in range(d + 2):
                holds = depth_leq_via_identity(A, n)[0]
                on_images = all(depth_leq_via_identity(B, n)[0] for B in images)
                assert holds == on_images, (A.arrow, n)
            points += len(images)
            checks += d + 2
        assert (len(algebras), points, checks) == (126, 542, 566)


class TestDepthAsStrongChains:
    """depth against the longest chain below 1 under a << b (a < b and
    b -> a = a), which reads neither the spectrum nor the d_n ladder
    (oracles.depth_by_strong_chains, where the proof is)."""

    def test_equals_depth(self):
        small = [A for size in range(1, 8) for A in enumerate_hilbert(size)]
        assert len(small) == 676
        for A in small + ladder_set():
            assert depth_by_strong_chains(A) == depth(A), A.arrow

    @pytest.mark.slow
    def test_equals_depth_at_eight(self):
        algebras = enumerate_hilbert(8)
        assert len(algebras) == 4036
        for A in algebras:
            assert depth_by_strong_chains(A) == depth(A), A.arrow

    def test_the_witness_is_a_strong_chain(self):
        """For every failing (A, n) with <= 6 elements, proof procedure 2
        yields n + 1 elements below 1, each << every later one: a copy of
        chain_algebra(n + 1), the forbidden subalgebra."""
        pairs = 0
        for size in range(1, 7):
            for A in enumerate_hilbert(size):
                for n in range(depth(A)):
                    ok, cex = depth_leq_via_identity(A, n)
                    assert not ok
                    chain = chain_from_counterexample(A, cex, n)
                    es = subalgebra_from_chain(A, chain).elements
                    assert len(es) == n + 1 and A.top not in es
                    for i, j in itertools.combinations(range(n + 1), 2):
                        assert strongly_below(A, es[i], es[j]), (A.arrow, n, es)
                    pairs += 1
        assert pairs == 314


class TestChainFromCounterexample:
    def test_chain3(self, chain3):
        w = chain_from_counterexample(chain3, (0, 1), 1)
        assert w.filters == (subset_of([2]), subset_of([1, 2]))

    def test_a2_base_case(self, a2):
        w = chain_from_counterexample(a2, (0,), 0)
        assert w.filters == (subset_of([1]),)

    def test_chain4_principal_upsets(self):
        A = chain_algebra(3)
        w = chain_from_counterexample(A, (0, 1, 2), 2)
        assert w.filters == (
            subset_of([3]),
            subset_of([2, 3]),
            subset_of([1, 2, 3]),
        )

    def test_precondition(self, chain3):
        with pytest.raises(PreconditionError):
            chain_from_counterexample(chain3, (2, 2), 1)

    def test_short_assignment(self, chain3):
        with pytest.raises(UnboundVariableError):
            chain_from_counterexample(chain3, (0,), 1)

    def test_entries_out_of_range(self):
        A = chain_algebra(3)
        for assignment, named in (
            ((0, 7), "x1 = 7 "),
            ((0, -2), "x1 = -2 "),
            ((-4, 1), "x0 = -4 "),
            ((0, "1"), "x1 = '1' "),
            ((True, 1), "x0 = True "),
        ):
            with pytest.raises(RangeError, match=named):
                chain_from_counterexample(A, assignment, 1)

    @pytest.mark.parametrize("n", [2.5, "2", None])
    def test_n_must_be_an_int(self, n):
        with pytest.raises(RangeError, match="^n must be an int$"):
            chain_from_counterexample(chain_algebra(3), (0, 1, 2), n)
        A = chain_algebra(3)
        assert chain_from_counterexample(A, (0, 1, 2), True) == chain_from_counterexample(
            A, (0, 1, 2), 1
        )

    def test_negative_n_round_trip(self):
        # d_term(n) is x0 for every n <= 0, so n = -1 is the n = 0 case
        for A in [chain_algebra(3), fan(4)] + enumerate_hilbert(4):
            holds, cex = depth_leq_via_identity(A, -1)
            assert not holds
            w = chain_from_counterexample(A, cex, -1)
            assert w.filters == chain_from_counterexample(A, cex, 0).filters
            assert subalgebra_from_chain(A, w).elements == cex

    def test_invariants_exhaustive(self):
        for size in range(1, 5):
            for A in enumerate_hilbert(size):
                spec = set(meet_irreducibles(A))
                for n in range(4):
                    ok, cex = depth_leq_via_identity(A, n)
                    if ok:
                        continue
                    w = chain_from_counterexample(A, cex, n)
                    assert len(w.filters) == n + 1
                    assert all(F in spec for F in w.filters)
                    for F, G in zip(w.filters, w.filters[1:]):
                        assert F & G == F and F != G


class TestChainAgainstCorrespondence:
    """The walk up the filters of A against the proof's route through the
    quotient algebras, inverting the full correspondence at each level."""

    def test_same_filters(self):
        small = [A for size in range(1, 6) for A in enumerate_hilbert(size)]
        reducts5 = [heyting_from_poset(P)[1] for P in all_posets(5, up_to_iso=True)]
        algebras = small + [
            heyting_from_poset(P)[1] for k in range(5) for P in all_posets(k, up_to_iso=True)
        ]
        algebras += reducts5
        algebras += [chain_algebra(m) for m in (4, 8, 16)]
        # Relabelled, least representatives of the quotient classes differ
        # from the canonical labelling's far more often, which exercises
        # the tie-break in separate.
        rng = random.Random(13)
        for A in (small + reducts5) * 2:
            algebras.append(relabelled(A, rng.sample(range(A.size), A.size)))
        for A in algebras:
            for n in range(depth(A)):
                _, cex = depth_leq_via_identity(A, n)
                expected = chain_by_correspondence(A, cex, n)
                assert chain_from_counterexample(A, cex, n).filters == expected, (A.arrow, n)


CHAIN3 = chain_algebra(2)


class TestSubalgebraFromChain:
    def test_chain3(self, chain3):
        w = chain_from_counterexample(chain3, (0, 1), 1)
        s = subalgebra_from_chain(chain3, w)
        assert s.elements == (0, 1)

    def test_a2_base_case(self, a2):
        w = ChainWitness(filters=(subset_of([1]),))
        assert subalgebra_from_chain(a2, w).elements == (0,)

    def test_chain4(self):
        A = chain_algebra(3)
        w = chain_from_counterexample(A, (0, 1, 2), 2)
        assert subalgebra_from_chain(A, w).elements == (0, 1, 2)

    def test_malformed_chain_rejected(self, chain3):
        # not strictly increasing
        w = ChainWitness(filters=(subset_of([1, 2]), subset_of([2])))
        with pytest.raises(PreconditionError):
            subalgebra_from_chain(chain3, w)
        # member outside the spectrum
        w = ChainWitness(filters=(subset_of([0, 1, 2]),))
        with pytest.raises(PreconditionError):
            subalgebra_from_chain(chain3, w)

    # The Boolean algebra 0 < p, q < 1 on indices 0..3, a -> b = -a | b.
    BOOLEAN4 = FiniteHilbertAlgebra.from_table(
        [[3, 3, 3, 3], [2, 3, 2, 3], [1, 1, 3, 3], [0, 1, 2, 3]]
    )
    # Not an algebra, so made with the raw constructor, which skips
    # validate: the 3-chain 0 < a < 1 with 1 -> 0 = a.
    TOP_ROW_BROKEN = FiniteHilbertAlgebra(
        size=3, arrow=((2, 2, 2), (0, 2, 2), (1, 2, 2)), top=2
    )

    @pytest.mark.parametrize(
        "A, elements, F0, message",
        [
            (CHAIN3, (0, 1), subset_of([1, 2]), "top chain element lies in F_0"),
            (CHAIN3, (1, 0), bit(2), "witness elements are not strictly increasing"),
            (CHAIN3, (1, 1), bit(2), "witness elements are not strictly increasing"),
            (CHAIN3, (0, 2), bit(1), "witness chain reaches the top element"),
            (BOOLEAN4, (0, 1), bit(3), "a_j -> a_i = a_i fails on the witness"),
            (TOP_ROW_BROKEN, (0,), 0, "witness elements do not form a subuniverse"),
        ],
        ids=["in-F0", "decreasing", "repeated", "top", "a_j->a_i", "not-closed"],
    )
    def test_each_check_fires(self, A, elements, F0, message):
        """Each of the five checks, on a crafted witness.  In a Hilbert
        algebra the first four imply the fifth (a_i -> a_j = 1 below,
        a_j -> a_i = a_i above, x -> x = 1, 1 -> x = x, x -> 1 = 1), so
        the fifth needs a table that is not one."""
        with pytest.raises(InternalInvariantError, match=f"^{re.escape(message)}$"):
            _check_subalgebra(A, elements, F0)

    def test_round_trip_exhaustive(self):
        # counterexample -> filter chain -> element chain on which d_n fails again
        for size in range(1, 5):
            for A in enumerate_hilbert(size):
                for n in range(4):
                    ok, cex = depth_leq_via_identity(A, n)
                    if ok:
                        continue
                    w = chain_from_counterexample(A, cex, n)
                    s = subalgebra_from_chain(A, w)
                    es = s.elements
                    assert len(es) == n + 1
                    assert not w.filters[0] >> es[-1] & 1
                    for i in range(n + 1):
                        assert eval_term(A, d_term(i), es[: i + 1]) == es[i]
                    closed = subset_of(es) | bit(A.top)
                    assert closure_by_rounds(A, closed) == closed
                    assert eval_term(A, d_term(n), es) != A.top


class TestWitnessPathWithoutQuotient:
    """Both proof procedures stay in A: no congruence, quotient algebra or
    iterated closure is built on the way."""

    @pytest.fixture
    def no_quotient(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a quotient or closure was built")

        quotient_module = importlib.import_module("hilbertalg.quotient")
        monkeypatch.setattr(quotient_module, "theta", refuse)
        monkeypatch.setattr(quotient_module, "quotient", refuse)
        monkeypatch.setattr(filters, "fg_closure", refuse)

    @staticmethod
    def witnesses(A, ns):
        out = []
        for n in ns:
            holds, cex = depth_leq_via_identity(A, n)
            assert not holds
            chain = chain_from_counterexample(A, cex, n)
            out.append((cex, chain.filters, subalgebra_from_chain(A, chain).elements))
        return out

    def test_reducts_of_five_point_posets(self, no_quotient):
        for P in all_posets(5, up_to_iso=True):
            A = heyting_from_poset(P)[1]
            for cex, fs, elements in self.witnesses(A, range(depth(A))):
                assert len(fs) == len(elements) == len(cex)

    def test_chain_63_every_n(self, no_quotient):
        A = chain_algebra(63)
        for n, (cex, fs, elements) in enumerate(self.witnesses(A, range(63))):
            assert cex == elements == tuple(range(n + 1))
            assert fs == tuple(upset_by_cells(A, n + 1 - i) for i in range(n + 1))

    def test_capped_fan_62(self, no_quotient):
        A = capped_fan(62)
        assert self.witnesses(A, range(2)) == [
            ((0,), (A.universe_mask() & ~bit(0),), (0,)),
            ((0, 62), (bit(63), A.universe_mask() & ~bit(0)), (0, 62)),
        ]


class TestDepthPathWithoutLattice:
    """depth, verify and both proof procedures read the spectrum off the
    table and never build Fi(A); Fi(fan(63)) would have 2^63 members."""

    @pytest.fixture
    def no_lattice(self, monkeypatch):
        def refuse(A):
            raise AssertionError("Fi(A) was built")

        monkeypatch.setattr(filters, "_build_lattice", refuse)

    def test_library(self, no_lattice):
        A = fan(63)
        assert depth(A) == 1
        report = verify_main_theorem(A, 4)
        assert report.rows == ((0, False, False, True),) + tuple(
            (n, True, True, True) for n in range(1, 5)
        )
        assert separate(A, bit(A.top), 0) == A.universe_mask() & ~bit(0)
        holds, cex = depth_leq_via_identity(A, 0)
        assert not holds and cex == (0,)
        chain = chain_from_counterexample(A, cex, 0)
        assert chain.filters == (A.universe_mask() & ~bit(0),)
        assert subalgebra_from_chain(A, chain).elements == (0,)

    def test_witnesses_above_depth_one(self, no_lattice):
        # Fi(capped_fan(62)) would have 2^62 + 1 members
        A = capped_fan(62)
        assert depth(A) == 2
        holds, cex = depth_leq_via_identity(A, 1)
        assert (holds, cex) == (False, (0, 62))
        chain = chain_from_counterexample(A, cex, 1)
        assert chain.filters == (bit(63), A.universe_mask() & ~bit(0))
        assert subalgebra_from_chain(A, chain).elements == (0, 62)

    def test_cli_verify(self, no_lattice, tmp_path, capsys):
        A = fan(63)
        path = tmp_path / "fan63.json"
        path.write_text(json.dumps({"size": A.size, "arrow": A.arrow}))
        assert main(["verify", str(path), "--nmax", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "depth 1",
            "n=0: depth<=0 no, d_0 holds no, agree, counterexample (0,)",
        ] + [f"n={n}: depth<={n} yes, d_{n} holds yes, agree" for n in range(1, 5)]
