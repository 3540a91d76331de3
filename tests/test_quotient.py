import pytest

from hilbertalg import (
    all_filters,
    chain_algebra,
    correspondence_check,
    enumerate_hilbert,
    find_isomorphism,
    meet_irreducibles,
    quotient,
    subset_of,
    theta,
    validate,
)
from hilbertalg.errors import NotAFilterError


class TestTheta:
    def test_identity_congruence(self, chain3):
        cong = theta(chain3, subset_of([2]))
        assert cong.blocks == (subset_of([0]), subset_of([1]), subset_of([2]))

    def test_collapsing_congruence(self, chain3):
        cong = theta(chain3, subset_of([1, 2]))
        assert set(cong.blocks) == {subset_of([0]), subset_of([1, 2])}
        assert cong.class_of == (0, 1, 1)

    def test_total_congruence(self, chain3):
        cong = theta(chain3, chain3.universe_mask())
        assert cong.blocks == (chain3.universe_mask(),)

    def test_not_a_filter(self, chain3):
        with pytest.raises(NotAFilterError):
            theta(chain3, subset_of([0, 2]))

    def test_congruence_laws_exhaustive(self):
        # reflexive/symmetric/transitive/compatible checked inside theta
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for F in all_filters(A).filters:
                    theta(A, F)


class TestQuotient:
    def test_collapse_to_a2(self, chain3, a2):
        q = quotient(chain3, subset_of([1, 2]))
        assert q.algebra.size == 2
        assert find_isomorphism(q.algebra, a2) is not None

    def test_trivial_filter_gives_copy(self, chain3, fork):
        for A in (chain3, fork):
            q = quotient(A, subset_of([A.top]))
            assert find_isomorphism(q.algebra, A) is not None

    def test_chain4_by_upset(self):
        A = chain_algebra(3)
        q = quotient(A, A.upset_mask(1))
        assert q.algebra.size == 2
        assert q.projection == (0, 1, 1, 1)

    def test_projection_is_homomorphism(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for F in all_filters(A).filters:
                    q = quotient(A, F)
                    p = q.projection
                    assert p[A.top] == q.algebra.top
                    for a in range(A.size):
                        for b in range(A.size):
                            assert p[A.arrow[a][b]] == q.algebra.arrow[p[a]][p[b]]

    def test_quotient_validates(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for F in all_filters(A).filters:
                    table = [list(r) for r in quotient(A, F).algebra.arrow]
                    assert validate(table).ok


class TestCorrespondence:
    def test_chain_interval(self, chain3):
        F = subset_of([1, 2])
        mapping, ok = correspondence_check(chain3, F)
        assert ok
        assert len(mapping) == 2  # {a,1} and the whole algebra

    def test_trivial_filter_full_lattice(self, fork):
        F = subset_of([fork.top])
        mapping, ok = correspondence_check(fork, F)
        assert ok
        assert len(mapping) == len(all_filters(fork).filters)

    def test_fork_by_principal(self, fork):
        mapping, ok = correspondence_check(fork, subset_of([0, 2]))
        assert ok
        assert set(mapping) == {subset_of([0, 2]), subset_of([0, 1, 2])}

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for F in all_filters(A).filters:
                    _, ok = correspondence_check(A, F)
                    assert ok

    def test_meet_irreducibility_transports(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                spec = set(meet_irreducibles(A).filters)
                for F in all_filters(A).filters:
                    mapping, ok = correspondence_check(A, F)
                    assert ok
                    q = quotient(A, F)
                    quotient_spec = set(
                        meet_irreducibles(q.algebra).filters
                    )
                    assert {
                        mapping[G] for G in mapping if G in spec
                    } == quotient_spec
