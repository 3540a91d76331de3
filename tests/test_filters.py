import pytest

from hilbertalg import (
    FiniteHilbertAlgebra,
    all_filters,
    all_posets,
    chain_algebra,
    depth,
    enumerate_hilbert,
    fg_closure,
    heyting_from_poset,
    is_implicative_filter,
    meet_irreducibles,
    separate,
    subset_of,
)
from hilbertalg.errors import PreconditionError, SizeLimitError
from oracles import (
    fan,
    fg_formula_member,
    fg_with_extra,
    fg_with_extra_member,
    is_meet_prime,
    join,
    one_upper_cover_spectrum,
)


@pytest.fixture(scope="module")
def oracle_set():
    """Every algebra with <=5 elements and the reducts of posets with <=4 points."""
    algebras = [A for n in range(1, 6) for A in enumerate_hilbert(n)]
    for k in range(5):
        algebras += [heyting_from_poset(P)[1] for P in all_posets(k, up_to_iso=True)]
    return algebras


def by_size(masks):
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def pairwise_meet_spectrum(L):
    """The spectrum by definition: filters below the maximum that are not
    the meet of two strictly larger filters."""
    out = []
    for F in L.filters:
        if F == L.algebra.universe_mask():
            continue
        above = [G for G in L.filters if G != F and G & F == F]
        if not any(G & H == F for i, G in enumerate(above) for H in above[i:]):
            out.append(F)
    return tuple(out)


class TestIsImplicativeFilter:
    def test_principal_upset(self, chain3):
        assert is_implicative_filter(chain3, subset_of([1, 2]))

    def test_not_mp_closed(self, chain3):
        # 0 in S and 0 -> a = 1 in S, but a missing
        assert not is_implicative_filter(chain3, subset_of([0, 2]))

    def test_top_alone(self, chain3, fork, a2):
        for A in (chain3, fork, a2):
            assert is_implicative_filter(A, subset_of([A.top]))

    def test_missing_top(self, chain3):
        assert not is_implicative_filter(chain3, subset_of([1]))


class TestFgClosure:
    def test_principal(self, chain3):
        assert fg_closure(chain3, subset_of([1])) == subset_of([1, 2])
        assert fg_closure(chain3, subset_of([1])) == chain3.upset_mask(1)

    def test_empty(self, chain3, fork):
        for A in (chain3, fork):
            assert fg_closure(A, 0) == subset_of([A.top])

    def test_fork_two_generators(self, fork):
        assert fg_closure(fork, subset_of([0, 1])) == subset_of([0, 1, 2])

    def test_closure_laws(self, fork, chain3):
        for A in (fork, chain3):
            U = A.universe_mask()
            for X in range(U + 1):
                F = fg_closure(A, X)
                assert X & F == X
                assert fg_closure(A, F) == F
                for Y in range(U + 1):
                    if X & Y == X:
                        assert F & fg_closure(A, Y) == F


class TestFormulaMembership:
    def test_top_always_member(self, chain3):
        assert fg_formula_member(chain3, subset_of([1]), 2)

    def test_generator_is_member(self, chain3):
        assert fg_formula_member(chain3, subset_of([1]), 1)

    def test_bottom_not_member(self, chain3):
        assert not fg_formula_member(chain3, subset_of([1]), 0)

    def test_agrees_with_closure_exhaustively(self, chain3, fork):
        for A in (chain3, fork):
            for X in range(A.universe_mask() + 1):
                F = fg_closure(A, X)
                for a in range(A.size):
                    assert fg_formula_member(A, X, a) == bool(F >> a & 1)


class TestFgWithExtra:
    def test_reduces_to_principal(self, chain3):
        assert fg_with_extra(chain3, 0, 1) == subset_of([1, 2])

    def test_fork(self, fork):
        assert fg_with_extra(fork, subset_of([0]), 1) == subset_of([0, 1, 2])

    def test_adding_bottom_gives_everything(self, chain3):
        assert fg_with_extra(chain3, subset_of([2]), 0) == subset_of([0, 1, 2])

    def test_predicate_agrees(self, chain3, fork):
        for A in (chain3, fork):
            for X in range(A.universe_mask() + 1):
                for c in range(A.size):
                    F = fg_with_extra(A, X, c)
                    for a in range(A.size):
                        assert fg_with_extra_member(A, X, c, a) == bool(F >> a & 1)


class TestAllFilters:
    def test_counts(self, a2, chain3, fork):
        assert len(all_filters(a2).filters) == 2
        assert len(all_filters(chain3).filters) == 3
        assert len(all_filters(fork).filters) == 4

    def test_exactly_the_filters(self, fork):
        L = all_filters(fork)
        expected = {
            S
            for S in range(fork.universe_mask() + 1)
            if is_implicative_filter(fork, S)
        }
        assert set(L.filters) == expected

    def test_bfs_agrees_with_subset_scan(self, oracle_set):
        for A in oracle_set:
            scan = (S for S in range(1 << A.size) if is_implicative_filter(A, S))
            assert all_filters(A).filters == by_size(scan), A.arrow

    def test_every_filter_is_an_upset(self, fork, chain3):
        for A in (fork, chain3):
            for F in all_filters(A).filters:
                for a in range(A.size):
                    if F >> a & 1:
                        assert A.upset_mask(a) & ~F == 0

    def test_size_cap(self):
        # all_filters has no cap of its own: one-word masks bound the algebra
        with pytest.raises(SizeLimitError):
            FiniteHilbertAlgebra.from_table([[0] * 65 for _ in range(65)])

    def test_built_once_per_algebra(self, fork):
        twin = FiniteHilbertAlgebra.from_table([list(row) for row in fork.arrow])
        before = (hash(fork), repr(fork))
        L = all_filters(fork)
        assert all_filters(fork) is L
        spectrum = meet_irreducibles(fork).filters
        assert meet_irreducibles(fork).filters is spectrum
        assert fork == twin and (hash(fork), repr(fork)) == before
        assert (hash(twin), repr(twin)) == before


class TestSpectrum:
    def test_a2(self, a2):
        assert meet_irreducibles(a2).filters == (subset_of([1]),)

    def test_chain(self, chain3):
        spec = meet_irreducibles(chain3)
        assert spec.filters == (subset_of([2]), subset_of([1, 2]))

    def test_fork_excludes_bottom(self, fork):
        spec = meet_irreducibles(fork)
        assert set(spec.filters) == {subset_of([0, 2]), subset_of([1, 2])}

    def test_agrees_with_pairwise_meets(self, oracle_set):
        fans = [fan(m) for m in range(1, 7)]
        for A in oracle_set + [chain_algebra(16)] + fans:
            L = all_filters(A)
            assert meet_irreducibles(A).filters == pairwise_meet_spectrum(L), A.arrow

    def test_agrees_with_one_upper_cover(self, oracle_set):
        # fan(12) has 4096 filters; fan(16) takes seconds, too slow here
        fans = [fan(m) for m in range(1, 13)]
        for A in oracle_set + [chain_algebra(16)] + fans:
            assert meet_irreducibles(A).filters == one_upper_cover_spectrum(A), A.arrow

    def test_meet_prime_examples(self, fork, a2):
        L = all_filters(fork)
        assert is_meet_prime(L, subset_of([0, 2]))
        assert not is_meet_prime(L, subset_of([2]))
        assert not is_meet_prime(all_filters(a2), subset_of([0, 1]))

    def test_irreducible_equals_prime(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                L = all_filters(A)
                spec = set(meet_irreducibles(A).filters)
                primes = {F for F in L.filters if is_meet_prime(L, F)}
                assert spec == primes

    def test_distributivity(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                L = all_filters(A)
                for G in L.filters:
                    for H in L.filters:
                        for K in L.filters:
                            assert G & join(A, H, K) == join(A, G & H, G & K)


class TestDepth:
    def test_examples(self, trivial, chain3, fork):
        assert depth(trivial) == 0
        assert depth(chain3) == 2
        assert depth(fork) == 1

    def test_chains(self):
        for m in range(1, 5):
            assert depth(chain_algebra(m)) == m


class TestSeparate:
    def test_chain(self, chain3):
        assert separate(chain3, subset_of([2]), 0) == subset_of([1, 2])

    def test_a2(self, a2):
        assert separate(a2, subset_of([1]), 0) == subset_of([1])

    def test_fork_deterministic(self, fork):
        assert separate(fork, subset_of([2]), 0) == subset_of([1, 2])

    def test_precondition(self, chain3):
        with pytest.raises(PreconditionError):
            separate(chain3, subset_of([1, 2]), 1)

    def test_soundness_exhaustive(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                spec = set(meet_irreducibles(A).filters)
                for F in all_filters(A).filters:
                    for a in range(A.size):
                        if not F >> a & 1:
                            G = separate(A, F, a)
                            assert G in spec
                            assert G & F == F
                            assert not G >> a & 1

    def test_corollary_separation(self):
        # a !<= b admits a spectrum member containing a, omitting b
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                spec = meet_irreducibles(A).filters
                for a in range(A.size):
                    for b in range(A.size):
                        if not A.leq(a, b):
                            assert any(
                                F >> a & 1 and not F >> b & 1 for F in spec
                            )
