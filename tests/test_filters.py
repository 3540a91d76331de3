import random

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
    quotient,
    separate,
    subset_of,
    theta,
)
from hilbertalg.core import bit, iter_bits
from hilbertalg.errors import PreconditionError, RangeError, SizeLimitError
from hilbertalg.filters import _class_leaders, _count_filters, _fg_with, _separate
from oracles import (
    capped_fan,
    fan,
    fg_formula_member,
    fg_with_extra,
    fg_with_extra_member,
    is_meet_prime,
    is_mp_closed,
    join,
    lattice_by_extension,
    mp_closure,
    one_upper_cover_spectrum,
    relabelled,
    upset_by_cells,
)


@pytest.fixture(scope="module")
def oracle_set():
    """Every algebra with <=5 elements and the reducts of posets with <=4 points."""
    algebras = [A for n in range(1, 6) for A in enumerate_hilbert(n)]
    for k in range(5):
        algebras += [heyting_from_poset(P)[1] for P in all_posets(k, up_to_iso=True)]
    return algebras


@pytest.fixture(scope="module")
def listing_set(oracle_set):
    """466 algebras: those of oracle_set, the reducts of posets with 5 and
    6 points, six chains up to 64 elements, fan(1..12) and
    capped_fan(1..11)."""
    reducts = [heyting_from_poset(P)[1] for k in (5, 6) for P in all_posets(k, True)]
    chains = [chain_algebra(m) for m in (2, 4, 8, 16, 32, 63)]
    fans = [fan(m) for m in range(1, 13)] + [capped_fan(m) for m in range(1, 12)]
    return oracle_set + reducts + chains + fans


def by_size(masks):
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def pairwise_meet_spectrum(L):
    """The spectrum by definition: filters below the maximum that are not
    the meet of two strictly larger filters."""
    out = []
    for F in L:
        if F == L[-1]:  # the maximum: L is sorted by size
            continue
        above = [G for G in L if G != F and G & F == F]
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

    @pytest.mark.parametrize("S", [-1, 1 << 4, 1 << 9])
    def test_mask_outside_the_universe(self, S):
        with pytest.raises(RangeError, match="not inside the universe"):
            is_implicative_filter(chain_algebra(3), S)

    @pytest.mark.parametrize("S", ["8", 2.5, None])
    def test_mask_must_be_an_int(self, S):
        with pytest.raises(RangeError, match="^mask must be an int$"):
            is_implicative_filter(chain_algebra(3), S)
        # a bool is an int
        assert is_implicative_filter(chain_algebra(3), True) is is_implicative_filter(
            chain_algebra(3), 1
        )


class TestFgClosure:
    def test_principal(self, chain3):
        assert fg_closure(chain3, subset_of([1])) == subset_of([1, 2])
        assert fg_closure(chain3, subset_of([1])) == upset_by_cells(chain3, 1)

    def test_empty(self, chain3, fork):
        for A in (chain3, fork):
            assert fg_closure(A, 0) == subset_of([A.top])

    def test_fork_two_generators(self, fork):
        assert fg_closure(fork, subset_of([0, 1])) == subset_of([0, 1, 2])

    @pytest.mark.parametrize("X", [-1, 1 << 4, 1 << 9])
    def test_mask_outside_the_universe(self, X):
        with pytest.raises(RangeError, match="not inside the universe"):
            fg_closure(chain_algebra(3), X)

    @pytest.mark.parametrize("X", ["8", 2.5, None])
    def test_mask_must_be_an_int(self, X):
        with pytest.raises(RangeError, match="^mask must be an int$"):
            fg_closure(chain_algebra(8), X)
        assert fg_closure(chain_algebra(8), True) == fg_closure(chain_algebra(8), 1)

    def test_same_as_the_definition(self, oracle_set):
        """fg_closure and is_implicative_filter, which fold the deduction
        theorem's row over the generators, on every subset: the filters
        are the subsets that is_mp_closed accepts, and the closure of X
        is the least of them containing X."""
        for A in oracle_set:
            filters = by_size(S for S in range(1 << A.size) if is_mp_closed(A, S))
            for X in range(1 << A.size):
                least = next(F for F in filters if F & X == X)
                assert fg_closure(A, X) == least, (A.arrow, X)
                assert is_implicative_filter(A, X) == (least == X), (A.arrow, X)

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


class TestDeductionTheorem:
    def test_one_row_is_the_closure(self, oracle_set):
        for A in oracle_set:
            for F in all_filters(A):
                for a in range(A.size):
                    assert _fg_with(A, F, a) == mp_closure(A, F | bit(a))


class TestAllFilters:
    def test_counts(self, a2, chain3, fork):
        assert len(all_filters(a2)) == 2
        assert len(all_filters(chain3)) == 3
        assert len(all_filters(fork)) == 4

    def test_exactly_the_filters(self, fork):
        L = all_filters(fork)
        expected = {
            S
            for S in range(fork.universe_mask() + 1)
            if is_implicative_filter(fork, S)
        }
        assert set(L) == expected

    def test_bfs_agrees_with_subset_scan(self, oracle_set):
        for A in oracle_set:
            scan = (S for S in range(1 << A.size) if is_mp_closed(A, S))
            assert all_filters(A) == by_size(scan), A.arrow

    def test_every_filter_is_an_upset(self, fork, chain3):
        for A in (fork, chain3):
            for F in all_filters(A):
                for a in range(A.size):
                    if F >> a & 1:
                        assert upset_by_cells(A, a) & ~F == 0

    def test_size_cap(self):
        # all_filters has no cap of its own: MAX_UNIVERSE bounds the algebra
        with pytest.raises(SizeLimitError):
            FiniteHilbertAlgebra.from_table([[0] * 65 for _ in range(65)])

    def test_same_as_the_extension_search(self, listing_set):
        """The meets of the spectrum's up-sets are the filters that the
        search over one-element extensions reaches, in the same order,
        and _count_filters counts them without listing them."""
        assert len(listing_set) == 466
        for A in listing_set:
            expected = lattice_by_extension(A)
            assert all_filters(A) == expected, A.arrow
            assert _count_filters(A) == len(expected), A.arrow

    def test_count_past_the_listing(self):
        # Fi(fan(63)) has 2^63 members and Fi(capped_fan(62)) 2^62 + 1
        assert _count_filters(fan(63)) == 2**63
        assert _count_filters(capped_fan(62)) == 2**62 + 1

    def test_built_once_per_algebra(self, fork):
        """The spectrum is kept on the algebra; neither it nor the lattice,
        which is built anew on each call, changes ==, hash or repr."""
        twin = FiniteHilbertAlgebra.from_table([list(row) for row in fork.arrow])
        before = (hash(fork), repr(fork))
        assert all_filters(fork) == all_filters(twin)
        assert meet_irreducibles(fork) is fork._spectrum
        assert fork == twin and (hash(fork), repr(fork)) == before
        assert (hash(twin), repr(twin)) == before


class TestSpectrum:
    def test_a2(self, a2):
        assert meet_irreducibles(a2) == (subset_of([1]),)

    def test_chain(self, chain3):
        spec = meet_irreducibles(chain3)
        assert spec == (subset_of([2]), subset_of([1, 2]))

    def test_fork_excludes_bottom(self, fork):
        spec = meet_irreducibles(fork)
        assert set(spec) == {subset_of([0, 2]), subset_of([1, 2])}

    def test_agrees_with_pairwise_meets(self, oracle_set):
        fans = [fan(m) for m in range(1, 7)]
        for A in oracle_set + [chain_algebra(16)] + fans:
            L = lattice_by_extension(A)
            assert meet_irreducibles(A) == pairwise_meet_spectrum(L), A.arrow

    def test_agrees_with_one_upper_cover(self, oracle_set):
        # fan(12) has 4096 filters; fan(16) takes seconds, too slow here
        fans = [fan(m) for m in range(1, 13)]
        for A in oracle_set + [chain_algebra(16)] + fans:
            assert meet_irreducibles(A) == one_upper_cover_spectrum(A), A.arrow

    def test_meet_prime_examples(self, fork, a2):
        L = lattice_by_extension(fork)
        assert is_meet_prime(L, subset_of([0, 2]))
        assert not is_meet_prime(L, subset_of([2]))
        assert not is_meet_prime(lattice_by_extension(a2), subset_of([0, 1]))

    def test_irreducible_equals_prime(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                L = lattice_by_extension(A)
                spec = set(meet_irreducibles(A))
                primes = {F for F in L if is_meet_prime(L, F)}
                assert spec == primes

    def test_distributivity(self):
        """The fact that all_filters rests on, checked on the lattice found
        without the spectrum."""
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                L = lattice_by_extension(A)
                for G in L:
                    for H in L:
                        for K in L:
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

    @pytest.mark.parametrize("a", [2.5, "3", None])
    def test_element_must_be_an_int(self, a):
        """2.5 passed the range check and raised TypeError in a shift."""
        with pytest.raises(RangeError, match="^element index must be an int$"):
            separate(chain_algebra(8), 1 << 8, a)
        with pytest.raises(RangeError, match="^mask must be an int$"):
            separate(chain_algebra(8), 2.5, 0)
        assert separate(chain_algebra(8), 1 << 8, True) == separate(chain_algebra(8), 1 << 8, 1)

    @pytest.mark.parametrize(
        "F, a, message",
        [
            (-1, 0, "mask -0x1 not inside"),
            (1 << 9, 0, "mask 0x200 not inside"),
            (1, -1, "element index -1 out of range"),
            (1, 4, "element index 4 out of range"),
            (1, 9, "element index 9 out of range"),
        ],
    )
    def test_outside_the_universe(self, F, a, message):
        """A mask or an element outside chain_algebra(3) raises RangeError,
        before the filter is blamed."""
        with pytest.raises(RangeError, match=message):
            separate(chain_algebra(3), F, a)

    def test_soundness_exhaustive(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                spec = set(meet_irreducibles(A))
                for F in all_filters(A):
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
                spec = meet_irreducibles(A)
                for a in range(A.size):
                    for b in range(A.size):
                        if not A.leq(a, b):
                            assert any(
                                F >> a & 1 and not F >> b & 1 for F in spec
                            )

    def test_in_the_quotient_against_the_quotient_algebra(self, oracle_set):
        """_separate(A, X, a, E) is separate in A/E, pulled back, on the
        oracle set and on seeded relabellings of it, where least
        representatives and indices differ more often."""
        rng = random.Random(5)
        algebras = oracle_set + [
            relabelled(A, rng.sample(range(A.size), A.size)) for A in oracle_set * 2
        ]
        for A in algebras:
            lattice = all_filters(A)
            for E in lattice:
                q = quotient(A, E)
                proj = q.projection
                blocks = theta(A, E).blocks
                assert _class_leaders(A, E) == subset_of(min(iter_bits(b)) for b in blocks)
                for X in lattice:
                    if X & E != E:
                        continue
                    image = subset_of(proj[x] for x in iter_bits(X))
                    for a in range(A.size):
                        if X >> a & 1:
                            continue
                        G = separate(q.algebra, image, proj[a])
                        expected = subset_of(x for x in range(A.size) if G >> proj[x] & 1)
                        assert _separate(A, X, a, E) == expected, (A.arrow, E, X, a)
