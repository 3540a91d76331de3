import dataclasses
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hilbertalg import (
    FiniteHilbertAlgebra,
    all_posets,
    depth,
    enumerate_hilbert,
    heyting_from_poset,
    validate,
)
from hilbertalg import cli, enumeration
from hilbertalg.core import axioms_hold, iter_bits
from hilbertalg.enumeration import (
    Poset,
    _algebras,
    _canonical,
    _class_codes,
    _closed_masks,
    _closed_sets,
    _code_relabellers,
    _down_sets,
    _flat_relation,
    _least_code,
    _longest_chain,
    _next_classes,
    _table_relabellers,
    _tables,
)
from hilbertalg.errors import RangeError, SizeLimitError
from oracles import (
    _grow,
    _table_levels,
    backtracked_hilbert_classes,
    canonical_by_scan,
    check_order_by_cells,
    closed_masks_by_filter,
    closed_subsets,
    closure_hilbert_classes,
    find_isomorphism,
    heyting_by_cells,
    least_code_by_scan,
    longest_chain_by_leq,
    longest_chain_by_pairs,
    posets_by_relabelling,
    scanned_class_codes,
    scanned_hilbert_classes,
    unpruned_next_classes,
)


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


def class_tables(n):
    """The canonical flat tables of the classes of each size 1..n, from
    one seeded search."""
    tables = _tables(n, range(1, n + 1))
    return {m: [sum(A.arrow, ()) for A in _algebras(m, flats)] for m, flats in tables.items()}


def least_code_calls(monkeypatch, k):
    """How many candidates _next_classes keys with _least_code when it
    builds the k-point classes from the (k-1)-point ones."""
    parents = _class_codes(k - 1)
    calls = 0
    original = enumeration._least_code

    def counted(down):
        nonlocal calls
        calls += 1
        return original(down)

    with monkeypatch.context() as patched:
        patched.setattr(enumeration, "_least_code", counted)
        _next_classes(parents)
    return calls


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

    def test_same_as_closure_generator(self):
        for n in range(1, 7):
            mine = [A.arrow for A in enumerate_hilbert(n)]
            assert mine == [A.arrow for A in closure_hilbert_classes(n)], n

    @pytest.mark.slow
    def test_same_as_closure_generator_at_seven(self):
        mine = [A.arrow for A in enumerate_hilbert(7)]
        assert len(mine) == 550
        assert mine == [A.arrow for A in closure_hilbert_classes(7)]

    def test_same_as_minimal_element_growth(self):
        """The whole output for n <= 7, order included, against growth by
        one new minimal element, which shares only _canonical with the
        seeded search."""
        levels = _table_levels(7)
        for n in range(1, 8):
            mine = [sum(A.arrow, ()) for A in enumerate_hilbert(n)]
            assert mine == list(levels[n - 1]), n

    @pytest.mark.slow
    def test_same_as_minimal_element_growth_at_eight(self):
        """4,036 classes at size 8, order included, by both generators."""
        mine = [sum(A.arrow, ()) for A in enumerate_hilbert(8)]
        assert len(mine) == 4036
        assert mine == list(_table_levels(8)[-1])

    def test_closed_sets_same_as_closed_subsets(self):
        """On every class of posets with k < n <= 6 points: the closed
        subsets of Up(P) with at most n members that hold every
        co-principal up-set, read as masks of up-sets through the
        reduct's carrier."""
        for n in range(1, 7):
            for k in range(n):
                posets = all_posets(k, up_to_iso=True)
                for (_, down), P in zip(_class_codes(k), posets):
                    carrier, U = heyting_from_poset(P)
                    full = (1 << k) - 1
                    coprincipal = sum(1 << carrier.index(full & ~d) for d in down)
                    expected = sorted(
                        sum(1 << carrier[i] for i in iter_bits(S))
                        for m in range(1, n + 1)
                        for S in closed_subsets(U, m)
                        if S & coprincipal == coprincipal
                    )
                    assert _closed_sets(_down_sets(down), n) == expected, (n, down)

    def test_generation_keeps_no_poset_codes(self):
        """enumerate_hilbert walks its own poset levels: it leaves the
        _class_codes cache that all_posets fills empty, and its output
        does not depend on whether that cache was filled before."""
        _class_codes.cache_clear()
        cold = [sum(A.arrow, ()) for A in enumerate_hilbert(5)]
        assert _class_codes.cache_info().currsize == 0
        all_posets(4)
        assert [sum(A.arrow, ()) for A in enumerate_hilbert(5)] == cold

    def test_seeded_table_counts(self):
        """How many distinct tables the seeded search keys at each size,
        one _canonical each (growth by a minimal element keys 1, 2, 7,
        28, 139 and 805)."""
        counts = {m: len(tables) for m, tables in _tables(7, range(1, 8)).items()}
        assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 23, 6: 111, 7: 663}

    def test_one_search_serves_every_smaller_size(self):
        """The tables of size m that one search up to size n files are the
        tables the search up to size m finds, for every m <= n <= 7."""
        searches = {n: _tables(n, range(1, n + 1)) for n in range(1, 8)}
        for n, tables in searches.items():
            assert list(tables) == list(range(1, n + 1))
            for m in range(1, n + 1):
                assert tables[m] == searches[m][m], (n, m)

    def test_tables_built_only_of_the_size_read(self, monkeypatch):
        """enumerate_hilbert(n) builds the flat table of each closed set
        with n members and of no other: 23 at n = 5 and 663 at n = 7,
        one per distinct table, where filing every size up to 7 builds
        807."""
        built = []
        original = enumeration._closed_set_table

        def counted(below, S):
            built.append(S.bit_count())
            return original(below, S)

        monkeypatch.setattr(enumeration, "_closed_set_table", counted)
        for n, count in ((5, 23), (7, 663)):
            built.clear()
            enumerate_hilbert(n)
            assert built == [n] * count, n
        built.clear()
        _tables(7, range(1, 8))
        assert len(built) == 807

    def test_verify_enumerate_walks_the_posets_once(self, monkeypatch, capsys):
        """verify --enumerate 5 closes each of the 25 poset classes with
        fewer than 5 points once and builds the poset levels 1..4 once,
        where one search per size would take 41 and 10 steps."""
        calls = {"_closed_sets": 0, "_next_classes": 0}
        for name in calls:
            original = getattr(enumeration, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(enumeration, name, counted)
        assert cli.main(["verify", "--enumerate", "5"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "31 algebras checked, 155 (algebra,n) pairs, all agree"
        assert calls == {"_closed_sets": 25, "_next_classes": 4}

    def test_verify_enumerate_checks_every_class_in_order(self, monkeypatch):
        """verify --enumerate 6 checks exactly the algebras of
        enumerate_hilbert(1), ..., enumerate_hilbert(6), in that order."""
        checked = []
        original = cli.verify_main_theorem

        def recorded(A, nmax):
            checked.append(A.arrow)
            return original(A, nmax)

        monkeypatch.setattr(cli, "verify_main_theorem", recorded)
        assert cli.main(["verify", "--enumerate", "6"]) == 0
        expected = [A.arrow for n in range(1, 7) for A in enumerate_hilbert(n)]
        assert len(expected) == 1 + 1 + 2 + 6 + 21 + 95
        assert checked == expected

    def test_grown_tables_are_algebras_with_the_seed_below(self):
        """Every table _grow yields is a Hilbert algebra with n-2 minimal
        and the seed on the other elements, and no table comes twice."""
        levels = class_tables(5)
        for n in range(2, 7):
            m = n - 1
            labels = list(range(m - 1)) + [n - 1]
            for B in levels[m]:
                grown = list(_grow(B, m))
                assert len(set(grown)) == len(grown)
                for flat in grown:
                    table = [list(flat[a * n : (a + 1) * n]) for a in range(n)]
                    assert validate(table).ok
                    assert all(table[x][n - 2] != n - 1 for x in range(n - 1) if x != n - 2)
                    assert all(
                        table[labels[a]][labels[b]] == labels[B[a * m + b]]
                        for a in range(m)
                        for b in range(m)
                    )

    def test_grown_table_counts(self):
        """How many tables _grow yields from all representatives of each
        size, with the minimal-element rule: without it, 38 at n = 5,
        202 at n = 6 and 1,289 at n = 7."""
        levels = class_tables(6)
        counts = {
            n: sum(len(list(_grow(B, n - 1))) for B in levels[n - 1]) for n in range(2, 8)
        }
        assert counts == {2: 1, 3: 2, 4: 7, 5: 28, 6: 139, 7: 805}

    def test_canonical_same_as_permutation_scan(self):
        """On every table enumerate_hilbert keys, on every table growth by
        a minimal element and the closure generator key, and on seeded
        relabellings of each closed-set table (top kept at n-1)."""
        rng = random.Random(9)
        seeded, levels = _tables(5, range(1, 6)), class_tables(4)
        for n in range(1, 6):
            relabellers = _table_relabellers(n)
            tables = [tuple(t) for t in seeded[n]]
            if n > 1:
                tables += [tuple(t) for B in levels[n - 1] for t in _grow(B, n - 1)]
            for k in range(n):
                for P in all_posets(k, up_to_iso=True):
                    _, U = heyting_from_poset(P)
                    for S in closed_subsets(U, n):
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

    @pytest.mark.slow
    def test_same_as_backtracking_at_six(self):
        mine = [sum(A.arrow, ()) for A in enumerate_hilbert(6)]
        assert len(mine) == 95
        assert mine == backtracked_hilbert_classes(6)

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

    def test_cap(self, refuse_generation):
        """Sizes past _MAX_ENUM_CAP = 8 are refused by name."""
        assert enumeration._MAX_ENUM_CAP == 8
        for n in (9, 12):
            with pytest.raises(SizeLimitError, match=f"^size {n} exceeds enumeration cap 8$"):
                enumerate_hilbert(n)
            with pytest.raises(SizeLimitError, match=f"^size {n} exceeds enumeration cap 8$"):
                _tables(n, range(1, n + 1))

    def test_cap_above_measured_limit_refused_before_generation(
        self, refuse_generation, capsys
    ):
        """enumerate N past the cap prints one error line, nothing on
        stdout, and exits 1 before any poset level is built."""
        for n in (9, 12):
            assert cli.main(["enumerate", str(n)]) == 1
            assert capsys.readouterr() == ("", f"error: size {n} exceeds enumeration cap 8\n")

    def test_benchmark_corpus_check(self):
        """The benchmark's corpus pins digests of enumerate_hilbert(n),
        order included, for n = 1..5."""
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "make_corpus.py"), "--check"],
            cwd=root,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stdout + done.stderr

    def test_bad_size(self):
        with pytest.raises(RangeError):
            enumerate_hilbert(0)
        # a bool is an int
        assert enumerate_hilbert(True) == enumerate_hilbert(1)

    def test_size_not_an_int_refused_before_generation(self, refuse_generation):
        """2.5 and '3' once raised TypeError; like all_posets's k, a size
        that is not an int is refused before any poset level is built."""
        for n in (2.5, "3", None, 3.0):
            with pytest.raises(RangeError, match="^size must be an int$"):
                enumerate_hilbert(n)

    def test_verify_enumerate_refuses_past_the_cap_before_generation(
        self, refuse_generation, capsys
    ):
        """verify --enumerate N past the cap names N, with one error line
        and nothing on stdout, before any size is generated."""
        for n in (9, 12):
            assert cli.main(["verify", "--enumerate", str(n)]) == 1
            assert capsys.readouterr() == ("", f"error: size {n} exceeds enumeration cap 8\n")

    def test_new_objects_on_every_call(self):
        """Each call builds its tables and algebras afresh, with equal
        results."""
        first, second = enumerate_hilbert(4), enumerate_hilbert(4)
        assert first is not second
        assert all(A is not B and A.arrow == B.arrow for A, B in zip(first, second))
        before = [_tables(n, range(1, n + 1)) for n in range(1, 6)]
        assert [_tables(n, range(1, n + 1)) for n in range(1, 6)] == before
        assert _tables(5, range(1, 6))[5] is not before[-1][5]


class TestPosets:
    def test_counts(self):
        assert [len(all_posets(k)) for k in range(6)] == [1, 1, 3, 19, 219, 4231]
        assert [len(all_posets(k, up_to_iso=True)) for k in range(8)] == [
            1,
            1,
            2,
            5,
            16,
            63,
            318,
            2045,
        ]

    def test_negative_size_refused(self):
        """A negative k, or one that is not an int, is refused; a float
        used to recurse without end.  True counts as 1."""
        for up_to_iso in (False, True):
            with pytest.raises(RangeError, match="^number of points must be at least 0$"):
                all_posets(-1, up_to_iso)
            for k in (2.5, 2.0, "3", None):
                with pytest.raises(RangeError, match="^number of points must be an int$"):
                    all_posets(k, up_to_iso)
            assert all_posets(True, up_to_iso) == all_posets(1, up_to_iso)

    def test_class_codes_same_as_relabelling_scan(self):
        """The codes are those of the k! scan, and the masks kept beside
        each code are those of the poset it codes."""
        assert [[code for code, _ in _class_codes(k)] for k in range(7)] == [
            scanned_class_codes(k) for k in range(7)
        ]
        for k in range(7):
            identity = _code_relabellers(k)[0]
            for code, down in _class_codes(k):
                assert identity(_flat_relation(down)) == code

    def test_next_classes_same_as_unpruned_extension(self):
        """The twin rule keeps the (code, down) pairs, order included, of
        keying every candidate that passes the largest-down-set rule."""
        for k in range(1, 8):
            parents = _class_codes(k - 1)
            assert _next_classes(parents) == unpruned_next_classes(parents), k

    @pytest.mark.slow
    def test_next_classes_same_as_unpruned_extension_at_eight(self):
        parents = _class_codes(7)
        assert _next_classes(parents) == unpruned_next_classes(parents)

    def test_least_code_calls_per_level(self, monkeypatch):
        """The twin rule leaves 5, 16, 68, 350 and 2,333 candidates to key
        at k = 3..7, where the largest-down-set rule alone leaves 6, 21,
        91, 462 and 2,986."""
        calls = {k: least_code_calls(monkeypatch, k) for k in range(3, 8)}
        assert calls == {3: 5, 4: 16, 5: 68, 6: 350, 7: 2333}

    @pytest.mark.slow
    def test_least_code_calls_at_eight(self, monkeypatch):
        """19,622 candidates for the 16,999 classes, against 24,223."""
        assert least_code_calls(monkeypatch, 8) == 19622

    def test_closed_masks_same_as_filter(self):
        """Down-sets and up-sets of every labelled poset with at most 5
        points and of every six-point class."""
        posets = [P for k in range(6) for P in all_posets(k)]
        posets += all_posets(6, up_to_iso=True)
        for P in posets:
            k = P.size
            up = [P.upset_mask(x) for x in range(k)]
            down = [sum(1 << a for a in range(k) if P.leq[a][b]) for b in range(k)]
            for principal in (up, down):
                assert _closed_masks(principal) == closed_masks_by_filter(principal), P

    def test_class_codes_rebuilt_equal(self):
        """The codes are cached; a rebuild after clearing gives equal
        tuples, and the posets built from them are new on every call."""
        before = [_class_codes(k) for k in range(6)]
        _class_codes.cache_clear()
        assert [_class_codes(k) for k in range(6)] == before
        first, second = all_posets(4, True), all_posets(4, True)
        assert all(P is not Q and P == Q for P, Q in zip(first, second))

    def test_least_code_same_as_relabelling_scan(self):
        """On every labelled poset with at most 5 points."""
        for k in range(6):
            relabellers = _code_relabellers(k)
            for P in all_posets(k):
                down = tuple(
                    sum(1 << a for a in range(k) if P.leq[a][b]) for b in range(k)
                )
                assert _least_code(down) == least_code_by_scan(down, relabellers), P

    def test_least_code_same_as_scan_on_relabelled_six_point_classes(self):
        """On two seeded relabellings of every six-point class."""
        rng = random.Random(16)
        relabellers = _code_relabellers(6)
        for code, down in _class_codes(6):
            for _ in range(2):
                q = rng.sample(range(6), 6)  # point x becomes q[x]
                moved = [0] * 6
                for x in range(6):
                    moved[q[x]] = sum(1 << q[a] for a in iter_bits(down[x]))
                moved = tuple(moved)
                assert _least_code(moved) == least_code_by_scan(moved, relabellers) == code

    @pytest.mark.slow
    def test_eight_point_classes(self):
        """16,999 classes on 8 points (OEIS A000112), ascending by code,
        each code least for its poset."""
        identity = _code_relabellers(8)[0]
        codes = []
        for P in all_posets(8, up_to_iso=True):
            down = tuple(sum(1 << a for a in range(8) if P.leq[a][b]) for b in range(8))
            codes.append(identity(_flat_relation(down)))
            assert _least_code(down) == codes[-1]
        assert len(codes) == 16999
        assert codes == sorted(set(codes))

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

    def test_level_scan_against_the_all_pairs_loop(self):
        """_longest_chain against the scan of every pair, on seeded random
        families of distinct masks in ascending popcount: sparse and
        dense ones, wide ones (one or two popcounts, near antichains),
        and long chains with noise."""
        rng = random.Random(31)
        by_size = lambda masks: sorted(set(masks), key=lambda m: (m.bit_count(), m))
        families = [[], [0], [5], [1, 2, 4]]
        for _ in range(300):
            k = rng.randint(1, 14)
            count = rng.randint(1, 80)
            families.append(by_size(rng.getrandbits(k) for _ in range(count)))
            sizes = rng.sample(range(k + 1), min(2, k + 1))
            wide = (rng.getrandbits(k) for _ in range(4 * count))
            families.append(by_size(m for m in wide if m.bit_count() in sizes))
            chain, m = [], 0
            for x in rng.sample(range(k), k):
                m |= 1 << x
                chain.append(m)
            families.append(by_size(chain + [rng.getrandbits(k) for _ in range(count // 4)]))
        families.append(by_size(m for m in range(1 << 12) if m.bit_count() == 6))
        for sets in families:
            assert _longest_chain(sets) == longest_chain_by_pairs(sets), sets
        assert {_longest_chain(sets) for sets in families} >= set(range(15))

    def test_longest_chain_against_the_leq_loop(self):
        """Every labelled poset with <= 5 points, and every class with 6
        and 7 points."""
        posets = [P for k in range(6) for P in all_posets(k)]
        posets += all_posets(6, up_to_iso=True) + all_posets(7, up_to_iso=True)
        assert len(posets) == 4231 + 219 + 19 + 3 + 1 + 1 + 318 + 2045
        for P in posets:
            assert P.longest_chain() == longest_chain_by_leq(P), P.leq

    def test_list_rows_kept_as_tuples(self):
        """A relation given as lists is kept as a tuple of row tuples: the
        poset equals, hashes and prints like the one given as tuples, and
        its rows cannot be changed after the check."""
        rows = [[True, False], [False, True]]
        P, Q = Poset(2, rows), Poset(2, ((True, False), (False, True)))
        assert P.leq == Q.leq and all(type(row) is tuple for row in P.leq)
        assert (P, hash(P), repr(P)) == (Q, hash(Q), repr(Q))
        assert repr(P) == "Poset(size=2, leq=((True, False), (False, True)))"
        rows[0][1] = rows[1][0] = True
        assert P == Q and P.longest_chain() == 1
        with pytest.raises(TypeError):
            P.leq[0][1] = True

    def test_invalid_relation(self):
        with pytest.raises(RangeError):
            Poset(2, ((True, True), (True, True)))  # not antisymmetric

    def test_size_and_entries_checked(self):
        """A size that is not an int, a bool included, is refused before
        the shape; an entry that is not a bool is refused after it.  Each
        of these was once accepted or refused only by the shape message."""
        bad_sizes = ((True, [[1]]), (True, ((True,),)), (2.5, []), (2.0, ((True, True),) * 2))
        for size, leq in bad_sizes:
            with pytest.raises(RangeError, match="^size must be an int$"):
                Poset(size, leq)
        for leq in ([[2, 0], [0, 3]], [[1, 0], [0, 1]], ((True, None), (False, True))):
            with pytest.raises(RangeError, match="^leq entries must be bools$"):
                Poset(2, leq)
        with pytest.raises(RangeError, match="^leq must have 2 rows of 2 entries$"):
            Poset(2, [[1, 0]])
        # rows that cannot be read once raised TypeError
        for leq in ([1], None, [None], 5):
            with pytest.raises(RangeError, match="^leq must have 1 rows of 1 entries$"):
                Poset(1, leq)
        with pytest.raises(RangeError, match="^size must be an int$"):
            Poset(1.5, None)
        P = Poset(1, ((True,),))
        with pytest.raises(RangeError, match="^size must be an int$"):
            dataclasses.replace(P, size=True)
        assert repr(all_posets(True)) == repr(all_posets(1)) == f"[{P!r}]"
        assert repr(P) == "Poset(size=1, leq=((True,),))"

    @staticmethod
    def _verdict(check, *args):
        try:
            check(*args)
        except RangeError as exc:
            return str(exc)
        return None

    def test_order_check_same_as_cell_scan(self):
        """Every boolean 3x3 relation and seeded 4x4 ones are accepted or
        refused with the same message as a scan of every cell; a relation
        that is not size x size is refused before either."""
        rng = random.Random(12)
        relations = [
            (3, tuple(tuple(bits[3 * a : 3 * a + 3]) for a in range(3)))
            for bits in itertools.product((False, True), repeat=9)
        ]
        for _ in range(2000):
            relations.append(
                (4, tuple(tuple(rng.random() < 0.5 for _ in range(4)) for _ in range(4)))
            )
        # orders plus one flipped cell: near misses, rare among random relations
        for P in all_posets(4):
            a, b = rng.randrange(4), rng.randrange(4)
            rows = [list(row) for row in P.leq]
            rows[a][b] = not rows[a][b]
            relations.append((4, tuple(tuple(row) for row in rows)))
        verdicts = set()
        for k, leq in relations:
            expected = self._verdict(check_order_by_cells, k, leq)
            assert self._verdict(Poset, k, leq) == expected, leq
            verdicts.add(expected)
        assert len(verdicts) == 4  # accepted and the three messages
        misshapen = [
            (2, ((True,), (False, True))),  # short rows
            (2, ((True, False), (True,))),
            (2, ((True, False, False), (False, True, False))),  # long rows
            (2, ((True, True), (False, True, True))),
            (2, ((True, False),)),  # too few rows
            (1, ((True,), (True,))),  # too many rows
            (0, ((),)),
        ]
        for k, leq in misshapen:
            with pytest.raises(RangeError, match=f"^leq must have {k} rows of {k} entries$"):
                Poset(k, leq)


class TestHeytingFromPoset:
    def test_one_point_poset(self, a2):
        _, reduct = heyting_from_poset(Poset(1, ((True,),)))
        assert find_isomorphism(reduct, a2) is not None

    def test_long_chain(self):
        """A 63-point chain has 64 up-sets, the largest carrier allowed,
        and its reduct has depth 63, the length of the chain; the reduct
        is built cell by cell, not from all 2^63 point sets."""
        k = 63
        P = Poset(k, tuple(tuple(a <= b for b in range(k)) for a in range(k)))
        carrier, reduct = heyting_from_poset(P)
        assert reduct.size == len(carrier) == 64
        assert depth(reduct) == P.longest_chain() == 63

    def test_six_point_antichain(self):
        """A 6-point antichain has 64 up-sets, the largest carrier allowed:
        its reduct is built, the Boolean algebra of depth 1."""
        P = Poset(6, tuple(tuple(a == b for b in range(6)) for a in range(6)))
        carrier, reduct = heyting_from_poset(P)
        assert reduct.size == len(carrier) == 64
        assert depth(reduct) == P.longest_chain() == 1

    def test_carrier_holds_bottom_and_top(self):
        """On every class of posets with up to 6 points the carrier is a
        strictly ascending tuple of masks from the empty up-set, the
        reduct's 0, to P itself, the reduct's top and its last element."""
        for k in range(7):
            for P in all_posets(k, up_to_iso=True):
                carrier, reduct = heyting_from_poset(P)
                assert type(carrier) is tuple
                assert all(U < V for U, V in zip(carrier, carrier[1:])), P.leq
                assert carrier[0] == 0
                assert reduct.top == len(carrier) - 1
                assert carrier[reduct.top] == (1 << P.size) - 1

    def test_two_chain(self, chain3):
        P = Poset(2, ((True, True), (False, True)))
        _, reduct = heyting_from_poset(P)
        assert find_isomorphism(reduct, chain3) is not None

    def test_two_antichain_is_boolean(self):
        P = Poset(2, ((True, False), (False, True)))
        carrier, reduct = heyting_from_poset(P)
        assert reduct.size == 4
        # complemented: every element has a complement
        for U in carrier:
            assert any(U & V == 0 and U | V == carrier[-1] for V in carrier)

    def test_residuation_law(self):
        for P in all_posets(3, up_to_iso=True):
            carrier, reduct = heyting_from_poset(P)
            k = len(carrier)
            for a in range(k):
                for b in range(k):
                    for c in range(k):
                        meets = carrier[a] & carrier[b]
                        arrow = carrier[reduct.arrow[b][c]]
                        assert (meets & ~carrier[c] == 0) == (carrier[a] & ~arrow == 0)

    def test_same_as_cell_scan(self):
        """Carrier and table against the per-cell formula, on every class
        of posets with up to 6 points."""
        for k in range(7):
            for P in all_posets(k, up_to_iso=True):
                carrier, reduct = heyting_from_poset(P)
                assert (carrier, reduct.arrow) == heyting_by_cells(P), P.leq

    def test_upsets_are_upward_closed(self):
        for P in all_posets(3):
            for U in heyting_from_poset(P)[0]:
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
    """The depth of the upset-algebra reduct against the poset's longest
    chain."""

    def test_examples(self):
        for leq, expected in (
            (((True, True), (False, True)), 2),
            (((True,),), 1),
            (((True, False), (False, True)), 1),
        ):
            P = Poset(len(leq), leq)
            assert depth(heyting_from_poset(P)[1]) == P.longest_chain() == expected

    def test_all_small_posets_agree(self):
        for k in range(4):
            for P in all_posets(k, up_to_iso=True):
                assert depth(heyting_from_poset(P)[1]) == P.longest_chain()
