import itertools
import random

import pytest

from hilbertalg import (
    FiniteHilbertAlgebra,
    all_posets,
    depth,
    enumerate_hilbert,
    find_isomorphism,
    heyting_from_poset,
    reduct_depth_vs_poset,
    validate,
)
from hilbertalg.core import axioms_hold, iter_bits
from hilbertalg.enumeration import (
    Poset,
    _canonical,
    _closed_subsets,
    _table_relabellers,
    upsets,
)
from hilbertalg.errors import RangeError, SizeLimitError
from oracles import canonical_by_scan, posets_by_relabelling, scanned_hilbert_classes


def brute_force_classes(n):
    """Oracle: scan every n^(n*n) table, keep one per isomorphism class."""
    reps = []
    for flat in itertools.product(range(n), repeat=n * n):
        table = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if not axioms_hold(table, n, table[0][0]):
            continue
        A = FiniteHilbertAlgebra.from_table(table)
        if not any(find_isomorphism(A, B) for B in reps):
            reps.append(A)
    return reps


def dfs_classes(n):
    """Oracle for n=4: cell-by-cell search assuming only a constant diagonal,
    with incremental K/S/antisymmetry pruning."""
    classes = []

    def partial_ok(t, top):
        for x in range(n):
            for y in range(n):
                w = t[y][x]
                if w is not None and t[x][w] is not None and t[x][w] != top:
                    return False
                if x != y and t[x][y] == top and t[y][x] == top:
                    return False
                for z in range(n):
                    p = t[y][z]
                    if p is None:
                        continue
                    q = t[x][p]
                    if q is None:
                        continue
                    r = t[x][y]
                    if r is None:
                        continue
                    s = t[x][z]
                    if s is None:
                        continue
                    m = t[r][s]
                    if m is None:
                        continue
                    if t[q][m] is not None and t[q][m] != top:
                        return False
        return True

    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    for top in range(n):
        t = [[top if a == b else None for b in range(n)] for a in range(n)]

        def rec(i):
            if i == len(cells):
                A = FiniteHilbertAlgebra.from_table([list(r) for r in t])
                if not any(find_isomorphism(A, B) for B in classes):
                    classes.append(A)
                return
            a, b = cells[i]
            for v in range(n):
                t[a][b] = v
                if partial_ok(t, top):
                    rec(i + 1)
            t[a][b] = None

        rec(0)
    return classes


def scanned_posets(k, up_to_iso):
    """Oracle: scan all 3^C(k,2) reflexive antisymmetric relations in
    product order, keep the transitive ones, and with up_to_iso keep the
    first one met in each isomorphism class."""
    pairs = list(itertools.combinations(range(k), 2))
    out = []
    seen = set()
    for states in itertools.product(range(3), repeat=len(pairs)):
        m = [[a == b for b in range(k)] for a in range(k)]
        for (a, b), s in zip(pairs, states):
            if s == 1:
                m[a][b] = True
            elif s == 2:
                m[b][a] = True
        if any(
            m[a][b] and m[b][c] and not m[a][c]
            for a in range(k)
            for b in range(k)
            for c in range(k)
        ):
            continue
        if up_to_iso:
            canon = min(
                tuple(m[p[a]][p[b]] for a in range(k) for b in range(k))
                for p in itertools.permutations(range(k))
            )
            if canon in seen:
                continue
            seen.add(canon)
        out.append(Poset(size=k, leq=tuple(tuple(row) for row in m)))
    return out


class TestEnumerateHilbert:
    def test_small_counts(self):
        assert len(enumerate_hilbert(1)) == 1
        assert len(enumerate_hilbert(2)) == 1
        assert len(enumerate_hilbert(3)) == 2

    def test_brute_force_oracle_agrees(self):
        for n in (1, 2, 3):
            assert len(brute_force_classes(n)) == len(enumerate_hilbert(n))

    def test_same_as_table_scan(self):
        for n in range(1, 6):
            mine = [A.arrow for A in enumerate_hilbert(n)]
            assert mine == [A.arrow for A in scanned_hilbert_classes(n)], n

    def test_canonical_same_as_permutation_scan(self):
        """On every closed-set table enumerate_hilbert keys, and on seeded
        relabellings of each (top kept at n-1)."""
        rng = random.Random(9)
        for n in range(1, 6):
            relabellers = _table_relabellers(n)
            tables = []
            for k in range(n):
                for P in all_posets(k, up_to_iso=True):
                    _, U = heyting_from_poset(P)
                    for S in _closed_subsets(U, n):
                        members = list(iter_bits(S))
                        index = {x: i for i, x in enumerate(members)}
                        flat = tuple(index[U.arrow[x][y]] for x in members for y in members)
                        tables.append(flat)
                        for _ in range(3):
                            h = rng.sample(range(n - 1), n - 1) + [n - 1]
                            hinv = [h.index(x) for x in range(n)]
                            tables.append(
                                tuple(
                                    h[flat[hinv[x] * n + hinv[y]]]
                                    for x in range(n)
                                    for y in range(n)
                                )
                            )
            for flat in tables:
                assert _canonical(bytes(flat), relabellers) == canonical_by_scan(
                    flat, n, n - 1
                ), (n, flat)

    def test_dfs_oracle_agrees_at_four(self):
        oracle = dfs_classes(4)
        mine = enumerate_hilbert(4)
        assert len(mine) == len(oracle) == 6
        for A in oracle:
            assert sum(1 for B in mine if find_isomorphism(A, B)) == 1

    def test_size_three_shapes(self, chain3, fork):
        algs = enumerate_hilbert(3)
        assert any(find_isomorphism(A, chain3) for A in algs)
        assert any(find_isomorphism(A, fork) for A in algs)

    def test_all_validate_and_pairwise_nonisomorphic(self):
        for n in range(1, 6):
            algs = enumerate_hilbert(n)
            for A in algs:
                assert validate([list(r) for r in A.arrow]).ok
            for i, A in enumerate(algs):
                for B in algs[i + 1 :]:
                    assert find_isomorphism(A, B) is None

    def test_deterministic_order(self):
        first = [A.arrow for A in enumerate_hilbert(4)]
        second = [A.arrow for A in enumerate_hilbert(4)]
        assert first == second
        flats = [sum(arrow, ()) for arrow in first]
        assert flats == sorted(flats)

    def test_cap(self, monkeypatch):
        with pytest.raises(SizeLimitError):
            enumerate_hilbert(6, cap=5)
        monkeypatch.setenv("HILBERT_SIZE_CAP", "3")
        with pytest.raises(SizeLimitError):
            enumerate_hilbert(4)
        assert len(enumerate_hilbert(4, cap=4)) == 6

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_malformed_cap(self, monkeypatch, raw):
        monkeypatch.setenv("HILBERT_SIZE_CAP", raw)
        with pytest.raises(RangeError):
            enumerate_hilbert(3)

    def test_bad_size(self):
        with pytest.raises(RangeError):
            enumerate_hilbert(0)


class TestPosets:
    def test_counts(self):
        assert [len(all_posets(k)) for k in range(6)] == [1, 1, 3, 19, 219, 4231]
        assert [len(all_posets(k, up_to_iso=True)) for k in range(7)] == [
            1,
            1,
            2,
            5,
            16,
            63,
            318,
        ]

    def test_same_as_natural_order_relabelling(self):
        # k <= 4 is covered by test_same_as_relation_scan
        assert all_posets(5, up_to_iso=True) == posets_by_relabelling(5)

    @pytest.mark.parametrize(
        "k, up_to_iso", [(k, iso) for k in range(5) for iso in (False, True)] + [(5, False)]
    )
    def test_same_as_relation_scan(self, k, up_to_iso):
        assert all_posets(k, up_to_iso) == scanned_posets(k, up_to_iso)

    def test_longest_chain(self):
        two_chain = Poset(2, ((True, True), (False, True)))
        antichain = Poset(2, ((True, False), (False, True)))
        assert two_chain.longest_chain() == 2
        assert antichain.longest_chain() == 1
        assert Poset(0, ()).longest_chain() == 0

    def test_invalid_relation(self):
        with pytest.raises(RangeError):
            Poset(2, ((True, True), (True, True)))  # not antisymmetric


class TestHeytingFromPoset:
    def test_one_point_poset(self, a2):
        _, reduct = heyting_from_poset(Poset(1, ((True,),)))
        assert find_isomorphism(reduct, a2) is not None

    def test_two_chain(self, chain3):
        P = Poset(2, ((True, True), (False, True)))
        _, reduct = heyting_from_poset(P)
        assert find_isomorphism(reduct, chain3) is not None

    def test_two_antichain_is_boolean(self):
        P = Poset(2, ((True, False), (False, True)))
        heyting, reduct = heyting_from_poset(P)
        assert reduct.size == 4
        # complemented: every element has a complement
        for i in range(4):
            assert any(
                heyting.carrier[heyting.meet(i, j)] == 0
                and heyting.carrier[heyting.join(i, j)] == heyting.carrier[-1]
                for j in range(4)
            )

    def test_residuation_law(self):
        for P in all_posets(3, up_to_iso=True):
            heyting, _ = heyting_from_poset(P)
            k = len(heyting.carrier)
            for a in range(k):
                for b in range(k):
                    for c in range(k):
                        meets = heyting.carrier[heyting.meet(a, b)]
                        arrow = heyting.carrier[heyting.arrow[b][c]]
                        assert (meets & ~heyting.carrier[c] == 0) == (
                            heyting.carrier[a] & ~arrow == 0
                        )

    def test_upsets_are_upward_closed(self):
        for P in all_posets(3):
            for U in upsets(P):
                for x in iter_bits(U):
                    assert P.upset_mask(x) & ~U == 0

    def test_reducts_appear_in_enumeration(self):
        # when the reduct size is within the cap it must be isomorphic
        # to an emitted algebra of that size
        for k in range(3):
            for P in all_posets(k, up_to_iso=True):
                _, reduct = heyting_from_poset(P)
                if reduct.size <= 5:
                    algs = enumerate_hilbert(reduct.size)
                    assert sum(
                        1 for B in algs if find_isomorphism(reduct, B)
                    ) == 1


class TestReductDepth:
    def test_examples(self):
        assert reduct_depth_vs_poset(Poset(2, ((True, True), (False, True)))) == (
            2,
            2,
            True,
        )
        assert reduct_depth_vs_poset(Poset(1, ((True,),))) == (1, 1, True)
        assert reduct_depth_vs_poset(
            Poset(2, ((True, False), (False, True)))
        ) == (1, 1, True)

    def test_all_small_posets_agree(self):
        for k in range(4):
            for P in all_posets(k, up_to_iso=True):
                assert reduct_depth_vs_poset(P)[2]
