import itertools

import pytest

from hilbertalg import (
    all_filters,
    all_posets,
    chain_algebra,
    correspondence_check,
    enumerate_hilbert,
    find_isomorphism,
    heyting_from_poset,
    meet_irreducibles,
    quotient,
    subset_of,
    theta,
    validate,
)
from hilbertalg.errors import InternalInvariantError, NotAFilterError
from hilbertalg.quotient import _assert_congruence
from oracles import theta_by_cells


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

    def test_same_as_cell_by_cell_theta(self):
        """On every filter of the algebras with <= 5 elements and of the
        upset reducts of the 5-point posets."""
        algebras = [A for n in range(1, 6) for A in enumerate_hilbert(n)]
        algebras += [heyting_from_poset(P)[1] for P in all_posets(5, up_to_iso=True)]
        for A in algebras:
            for F in all_filters(A).filters:
                assert theta(A, F) == theta_by_cells(A, F)

    def test_refuses_the_masks_cell_by_cell_theta_refuses(self):
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for F in range(1 << n):
                    try:
                        expected = theta_by_cells(A, F)
                    except NotAFilterError:
                        with pytest.raises(NotAFilterError):
                            theta(A, F)
                    else:
                        assert theta(A, F) == expected

    def test_congruence_laws_exhaustive(self):
        # reflexive/symmetric/transitive/compatible checked inside theta
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for F in all_filters(A).filters:
                    theta(A, F)


def _partitions(n):
    """Each partition of 0..n-1 as class_of, blocks numbered by least
    member."""
    for class_of in itertools.product(range(n), repeat=n):
        if all(c <= max(class_of[:i], default=-1) + 1 for i, c in enumerate(class_of)):
            yield class_of


class TestEquivalenceCheck:
    def test_refuses_exactly_the_non_equivalences(self):
        """Every relation on up to 3 elements and every reflexive one on 4,
        with the blocks theta would form, one per distinct row: the
        reflexive, symmetric and transitive checks pass exactly on the
        equivalences."""
        for n in range(1, 5):
            A = chain_algebra(n - 1) if n > 1 else enumerate_hilbert(1)[0]
            cells = [(a, b) for a in range(n) for b in range(n) if n < 4 or a != b]
            for bits in itertools.product((0, 1), repeat=len(cells)):
                rel = {cell for cell, on in zip(cells, bits) if on}
                if n == 4:
                    rel |= {(a, a) for a in range(n)}
                related = [subset_of(b for b in range(n) if (a, b) in rel) for a in range(n)]
                index = {}
                class_of = [index.setdefault(r, len(index)) for r in related]
                equivalence = all((a, a) in rel for a in range(n)) and all(
                    (b, a) in rel and ((a, c) in rel) == ((b, c) in rel)
                    for a, b in rel
                    for c in range(n)
                )
                try:
                    _assert_congruence(A, related, class_of, tuple(index))
                    verdict = True
                except InternalInvariantError as exc:
                    verdict = "compatible" in str(exc)
                assert verdict == equivalence, rel


class TestCompatibilityCheck:
    def test_same_as_definition_on_every_partition(self):
        """_assert_congruence refuses an equivalence exactly when some
        a ~ a2, b ~ b2 give a->b and a2->b2 in different classes."""
        refused = 0
        for n in range(1, 5):
            for A in enumerate_hilbert(n):
                for class_of in _partitions(n):
                    related = [
                        subset_of(b for b, cb in enumerate(class_of) if cb == ca)
                        for ca in class_of
                    ]
                    blocks = [
                        subset_of(a for a, ca in enumerate(class_of) if ca == c)
                        for c in range(max(class_of) + 1)
                    ]
                    compatible = all(
                        class_of[A.arrow[a][b]] == class_of[A.arrow[a2][b2]]
                        for a, a2, b, b2 in itertools.product(range(n), repeat=4)
                        if class_of[a] == class_of[a2] and class_of[b] == class_of[b2]
                    )
                    if compatible:
                        _assert_congruence(A, related, class_of, blocks)
                    else:
                        refused += 1
                        with pytest.raises(
                            InternalInvariantError, match="theta_F not arrow-compatible"
                        ):
                            _assert_congruence(A, related, class_of, blocks)
        assert refused


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
