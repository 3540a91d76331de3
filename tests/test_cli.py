import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hilbertalg import (
    all_filters,
    all_posets,
    enumerate_hilbert,
    heyting_from_poset,
    meet_irreducibles,
    validate,
)
from hilbertalg import filters
from hilbertalg.cli import FILTER_LIST_LIMIT, NMAX_LIMIT, main
from hilbertalg.core import mask_str
from hilbertalg.files import dump_algebra, load_algebra, parse_algebra_text
from hilbertalg.errors import AlgebraFileError
from oracles import covers_by_scan, fan, find_isomorphism, lattice_by_extension, two_chains

CHAIN3 = {"size": 3, "arrow": [[2, 2, 2], [0, 2, 2], [0, 1, 2]], "names": ["0", "a", "1"]}
UNNAMED_CHAIN3 = {"size": 3, "arrow": CHAIN3["arrow"]}
FORK = {"size": 3, "arrow": [[2, 1, 2], [0, 2, 2], [0, 1, 2]], "names": ["x", "y", "1"]}
UNNAMED_FORK = {"size": 3, "arrow": FORK["arrow"]}
TRIVIAL = {"size": 1, "arrow": [[0]]}
BAD_CHAIN = {"size": 3, "arrow": [[2, 2, 2], [1, 2, 2], [0, 1, 2]]}


@pytest.fixture
def algebra_file(tmp_path):
    def write(doc, name="algebra.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def assert_error(capsys, code, expected):
    out = capsys.readouterr()
    assert code == expected
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.out + out.err


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv", [["analyze"], ["verify"], ["quotient", "--filter", "1"], ["check"]]
    )
    def test_missing_file(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing.json")
        assert_error(capsys, main([argv[0], missing, *argv[1:]]), 1)

    def test_dot_into_missing_directory(self, algebra_file, tmp_path, capsys):
        out_prefix = str(tmp_path / "no" / "such" / "dir")
        assert_error(capsys, main(["analyze", algebra_file(FORK), "--dot", out_prefix]), 1)

    def test_dot_with_empty_prefix_is_usage_error(self, algebra_file, tmp_path, monkeypatch, capsys):
        """An empty --dot prefix, as an unset $OUT gives, is refused before
        the file is read; it used to skip the export and exit 0."""
        path = algebra_file(FORK)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--dot", ""])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "hilbertalg: error: --dot needs a non-empty prefix"
        assert [p.name for p in tmp_path.iterdir()] == ["algebra.json"]

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert_error(capsys, main([command, str(path)]), 2)


class TestFiles:
    def test_round_trip(self, chain3):
        again = parse_algebra_text(dump_algebra(chain3))
        assert again.arrow == chain3.arrow
        assert again.names == chain3.names

    def test_parse_error_has_position(self):
        with pytest.raises(AlgebraFileError) as err:
            parse_algebra_text("{bad json")
        assert "line" in str(err.value)

    def test_missing_key(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra_text('{"size": 2}')

    def test_shape_mismatch(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra_text('{"size": 2, "arrow": [[1, 1]]}')

    def test_bool_size_rejected(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra_text('{"size": true, "arrow": [[0]]}')

    @pytest.mark.parametrize("names", [["a", "a", "1"], ["0", "1", 1]])
    def test_repeated_names_refused(self, names):
        doc = dict(CHAIN3, names=names)
        with pytest.raises(AlgebraFileError, match="names must be distinct"):
            parse_algebra_text(json.dumps(doc))


class TestCheck:
    def test_valid(self, algebra_file, capsys):
        assert main(["check", algebra_file(CHAIN3)]) == 0
        assert "valid Hilbert algebra, size 3" in capsys.readouterr().out

    def test_axiom_violation(self, algebra_file, capsys):
        assert main(["check", algebra_file(BAD_CHAIN)]) == 1
        out = capsys.readouterr().out
        assert "S" in out and "(1, 1, 0)" in out

    def test_malformed(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{size: oops")
        assert main(["check", str(path)]) == 2

    def test_bool_size(self, algebra_file, capsys):
        assert main(["check", algebra_file({"size": True, "arrow": [[0]]})]) == 2
        assert "size must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["check"], ["analyze", "--spectrum"], ["verify"], ["quotient", "--filter", "a,1"]],
    )
    def test_repeated_names(self, algebra_file, capsys, command):
        """A name given to two elements could not say which one it means:
        with ["a", "a", "1"], {a,1} would print for two filters."""
        path = algebra_file(dict(CHAIN3, names=["a", "a", "1"]))
        assert main([command[0], path, *command[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: names must be distinct, 'a' is repeated\n"

    @pytest.mark.parametrize("command", [["check"], ["analyze", "--filters"]])
    @pytest.mark.parametrize("name", ["a,b", " a", "a ", ""])
    def test_names_that_cannot_name_an_element(self, algebra_file, capsys, command, name):
        """--filter splits at commas and strips each token, and mask_str
        joins names with commas: with ["x", "a,b", "1"], --filter a,b,1
        read 'a' as a name, and the filter {a,b} printed as {a,b,1}."""
        path = algebra_file(dict(FORK, names=["x", name, "1"]))
        assert main([command[0], path, *command[1:]]) == 2
        assert capsys.readouterr() == (
            "",
            "error: names must be non-empty, hold no comma and not start or end "
            f"with whitespace, {name!r} does not\n",
        )

    def test_bool_entries(self, algebra_file, capsys):
        doc = {"size": 2, "arrow": [[True, True], [False, True]]}
        assert main(["check", algebra_file(doc)]) == 1
        assert "entry [0][0] = True" in capsys.readouterr().err


class TestAnalyze:
    def test_fork(self, algebra_file, capsys):
        assert main(["analyze", algebra_file(FORK)]) == 0
        out = capsys.readouterr().out
        assert "4 filters, spectrum 2 (antichain), depth 1" in out

    def test_chain(self, algebra_file, capsys):
        assert main(["analyze", algebra_file(CHAIN3)]) == 0
        out = capsys.readouterr().out
        assert "3 filters, spectrum 2 (chain), depth 2" in out

    def test_trivial(self, algebra_file, capsys):
        assert main(["analyze", algebra_file(TRIVIAL)]) == 0
        assert "1 filter, spectrum 0, depth 0" in capsys.readouterr().out

    def test_dot_export(self, algebra_file, tmp_path, capsys):
        out_prefix = str(tmp_path / "fork")
        assert main(["analyze", algebra_file(FORK), "--dot", out_prefix]) == 0
        text = (tmp_path / "fork-filters.dot").read_text()
        assert text.startswith("digraph filters {")
        labels = dict(re.findall(r'(n\d+) \[label="([^"]*)"\]', text))
        edges = {
            (labels[a], labels[b])
            for a, b in re.findall(r"(n\d+) -> (n\d+);", text)
        }
        # Hasse covers of the fork's 4-filter diamond
        assert edges == {
            ("{1}", "{x,1}"),
            ("{1}", "{y,1}"),
            ("{x,1}", "{x,y,1}"),
            ("{y,1}", "{x,y,1}"),
        }
        spectrum = (tmp_path / "fork-spectrum.dot").read_text()
        assert re.findall(r"n\d+ -> n\d+;", spectrum) == []  # antichain

    def test_dot_escapes_backslashes_and_quotes(self, algebra_file, tmp_path, capsys):
        """Names holding \\ and " give labels that are DOT strings, each
        unescaping to its filter's name; a name ending in \\ once escaped
        the label's closing quote."""
        names = ['a\\"', "b\\", '"c']
        path = algebra_file(dict(FORK, names=names))
        out_prefix = str(tmp_path / "named")
        assert main(["analyze", path, "--dot", out_prefix]) == 0
        A = load_algebra(path)
        for suffix, masks in (
            ("filters", all_filters(A)),
            ("spectrum", meet_irreducibles(A)),
        ):
            lines = (tmp_path / f"named-{suffix}.dot").read_text().splitlines()
            labels = [line for line in lines if "label=" in line]
            assert len(labels) == len(masks)
            for line, F in zip(labels, masks):
                quoted = re.search(r'label=("(?:[^"\\]|\\.)*")\];$', line)
                assert quoted, line
                unescaped = re.sub(r"\\(.)", r"\1", quoted[1][1:-1])
                assert unescaped == mask_str(F, names)

    def test_shape_and_covers_on_small_algebras(self, tmp_path, capsys):
        """analyze --spectrum --dot on every algebra with <= 5 elements and
        on the 63 reducts of 5-point posets: the shape word against the
        pairwise definition, the printed Hasse line and the edges of
        -spectrum.dot against the covers by definition, and the nodes and
        edges of -filters.dot, in file order, against the lattice from the
        extension search and its covers by a scan of all triples."""
        algebras = [A for n in range(1, 6) for A in enumerate_hilbert(n)]
        algebras += [heyting_from_poset(P)[1] for P in all_posets(5, up_to_iso=True)]
        path = tmp_path / "algebra.json"
        prefix = str(tmp_path / "out")
        seen = set()
        for A in algebras:
            path.write_text(dump_algebra(A))
            assert main(["analyze", str(path), "--spectrum", "--dot", prefix]) == 0
            lines = capsys.readouterr().out.splitlines()
            spec = meet_irreducibles(A)
            comparable = [F & G in (F, G) for i, F in enumerate(spec) for G in spec[i + 1 :]]
            if not spec:
                shape = None
            elif all(comparable):
                shape = "chain"
            elif not any(comparable):
                shape = "antichain"
            else:
                shape = "poset"
            head = re.fullmatch(r"\d+ filters?, spectrum (\d+)(?: \((\w+)\))?, depth \d+", lines[0])
            assert (int(head[1]), head[2]) == (len(spec), shape), lines[0]
            seen.add((len(spec), shape))

            label = lambda F: mask_str(F, A.names)
            covers = [
                f"{label(F)} < {label(G)}"
                for F in spec
                for G in spec
                if F != G
                and F & G == F
                and not any(H not in (F, G) and F & H == F and H & G == H for H in spec)
            ]
            assert lines[1] == "spectrum Hasse: " + (", ".join(covers) or "(no covers)")
            text = (tmp_path / "out-spectrum.dot").read_text()
            labels = dict(re.findall(r'(n\d+) \[label="([^"]*)"\]', text))
            edges = re.findall(r"(n\d+) -> (n\d+);", text)
            assert [f"{labels[a]} < {labels[b]}" for a, b in edges] == covers

            lattice = lattice_by_extension(A)
            text = (tmp_path / "out-filters.dot").read_text()
            labels = dict(re.findall(r'(n\d+) \[label="([^"]*)"\]', text))
            edges = re.findall(r"(n\d+) -> (n\d+);", text)
            assert list(labels.values()) == [label(F) for F in lattice]
            scanned = covers_by_scan(lattice, lambda F, G: F & G == F)
            assert [(int(a[1:]), int(b[1:])) for a, b in edges] == scanned
        shapes = {shape for m, shape in seen}
        assert (0, None) in seen and (1, "chain") in seen
        assert shapes == {None, "chain", "antichain", "poset"}

    def test_dot_on_a_wide_lattice(self, tmp_path, capsys):
        """fan(12) has 2^12 filters, each covered by adding one of the 12
        coatoms it lacks: 12 * 2^11 edges."""
        path = tmp_path / "fan12.json"
        path.write_text(dump_algebra(fan(12)))
        prefix = str(tmp_path / "fan12")
        assert main(["analyze", str(path), "--dot", prefix]) == 0
        assert capsys.readouterr().out.startswith("4096 filters, spectrum 12 (antichain)")
        text = (tmp_path / "fan12-filters.dot").read_text()
        assert len(re.findall(r"n\d+ \[label=", text)) == 4096
        assert len(re.findall(r"n\d+ -> n\d+;", text)) == 12 * 2**11 == 24576

    def test_count_without_the_lattice(self, tmp_path, capsys, monkeypatch):
        """Without --filters or --dot the filters are counted, not listed:
        Fi(fan(63)) would have 2^63 members."""

        def refuse(A):
            raise AssertionError("Fi(A) was built")

        monkeypatch.setattr(filters, "_build_lattice", refuse)
        path = tmp_path / "fan63.json"
        path.write_text(dump_algebra(fan(63)))
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "9223372036854775808 filters, spectrum 63 (antichain), depth 1",
            "spectrum Hasse: (no covers)",
        ]

    def test_count_within_the_state_budget(self, tmp_path, capsys):
        """16 disjoint 2-chains: 3^16 filters, counted in 2^17 - 1 states."""
        path = tmp_path / "two_chains16.json"
        path.write_text(dump_algebra(two_chains(16)))
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == "43046721 filters, spectrum 32 (poset), depth 2"
        assert out.err == ""

    def test_count_past_the_state_budget_refused(self, tmp_path, capsys, monkeypatch):
        """With the budget lowered to 2^10 states, 9 disjoint 2-chains
        (2^10 - 1 states) are counted and 10 (2^11 - 1) refused: exit 1,
        nothing on stdout, one error line."""
        monkeypatch.setattr(filters, "_COUNT_STATES", 1 << 10)
        for m, code in ((9, 0), (10, 1)):
            path = tmp_path / f"two_chains{m}.json"
            path.write_text(dump_algebra(two_chains(m)))
            assert main(["analyze", str(path)]) == code
            out = capsys.readouterr()
            if code:
                assert (out.out, out.err) == (
                    "",
                    "error: counting the filters needs more than 1024 states\n",
                )
            else:
                assert out.out.splitlines()[0] == "19683 filters, spectrum 18 (poset), depth 2"
                assert out.err == ""

    @pytest.mark.parametrize("flags", [["--filters"], ["--dot", "out"], ["--filters", "--dot", "out"]])
    def test_listing_past_the_limit_refused(self, tmp_path, capsys, monkeypatch, flags):
        """--filters and --dot refuse fan(63)'s 2^63 filters up front:
        exit 1, nothing on stdout, one error line with the count."""

        def refuse(A):
            raise AssertionError("Fi(A) was built")

        monkeypatch.setattr(filters, "_build_lattice", refuse)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "fan63.json"
        path.write_text(dump_algebra(fan(63)))
        assert main(["analyze", str(path)] + flags) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: 9223372036854775808 filters exceed the listing limit "
            f"{FILTER_LIST_LIMIT} of --filters and --dot\n"
        )
        assert FILTER_LIST_LIMIT == 1 << 16
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("flag", ["--filters", "--dot"])
    def test_listing_limit_boundary(self, tmp_path, capsys, monkeypatch, flag):
        """With the limit lowered to 2^12, fan(12)'s 4,096 filters are
        listed and fan(13)'s 8,192 refused."""
        monkeypatch.setattr("hilbertalg.cli.FILTER_LIST_LIMIT", 4096)
        args = [flag] if flag == "--filters" else [flag, str(tmp_path / "out")]
        for m, code in ((12, 0), (13, 1)):
            path = tmp_path / f"fan{m}.json"
            path.write_text(dump_algebra(fan(m)))
            assert main(["analyze", str(path)] + args) == code
            out = capsys.readouterr()
            if code:
                assert out.out == ""
                assert out.err == (
                    "error: 8192 filters exceed the listing limit 4096 of --filters and --dot\n"
                )
            else:
                assert out.out.startswith("4096 filters, spectrum 12 (antichain)")
                assert out.out.count("  filter ") == (4096 if flag == "--filters" else 0)
                assert out.err == ""


class TestVerify:
    def test_enumerate_three(self, capsys):
        assert main(["verify", "--enumerate", "3", "--nmax", "3"]) == 0
        out = capsys.readouterr().out
        assert "4 algebras checked, 16 (algebra,n) pairs, all agree" in out

    def test_enumerate_six(self, capsys):
        assert main(["verify", "--enumerate", "6", "--nmax", "5"]) == 0
        out = capsys.readouterr().out
        assert "126 algebras checked, 756 (algebra,n) pairs, all agree" in out

    @pytest.mark.parametrize("n", [9, 12])
    def test_enumerate_past_the_cap(self, refuse_generation, capsys, n):
        """A size past the cap of 8 is refused by name, with nothing on
        stdout."""
        assert main(["verify", "--enumerate", str(n)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: size {n} exceeds enumeration cap 8\n"

    def test_single_chain(self, algebra_file, capsys):
        assert main(["verify", algebra_file(CHAIN3), "--nmax", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=0: depth<=0 no, d_0 holds no, agree" in out
        assert "n=1: depth<=1 no, d_1 holds no, agree" in out
        assert "n=2: depth<=2 yes, d_2 holds yes, agree" in out

    def test_trivial(self, algebra_file, capsys):
        assert main(["verify", algebra_file(TRIVIAL), "--nmax", "0"]) == 0
        assert "n=0: depth<=0 yes, d_0 holds yes, agree" in capsys.readouterr().out

    def test_needs_exactly_one_input(self, algebra_file):
        with pytest.raises(SystemExit):
            main(["verify"])
        with pytest.raises(SystemExit):
            main(["verify", algebra_file(CHAIN3), "--enumerate", "3"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nmax", "-3", "--enumerate", "2"],
            ["--enumerate", "0"],
            ["--enumerate", "-1"],
        ],
    )
    def test_empty_check_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    def test_negative_nmax_with_file(self, algebra_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", algebra_file(CHAIN3), "--nmax", "-3"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_nmax_at_the_limit(self, algebra_file, capsys):
        assert main(["verify", algebra_file(CHAIN3), "--nmax", str(NMAX_LIMIT)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert NMAX_LIMIT == 63 and len(lines) == 1 + 64
        assert lines[-1] == "n=63: depth<=63 yes, d_63 holds yes, agree"

    @pytest.mark.parametrize("nmax", [NMAX_LIMIT + 1, 10**9])
    @pytest.mark.parametrize("source", ["file", "enumerate"])
    def test_nmax_past_the_limit_is_usage_error(self, algebra_file, capsys, nmax, source):
        where = [algebra_file(CHAIN3)] if source == "file" else ["--enumerate", "2"]
        with pytest.raises(SystemExit) as exc:
            main(["verify", *where, "--nmax", str(nmax)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "hilbertalg: error: --nmax must be at most 63, "
            "the largest depth of an algebra with at most 64 elements"
        )


class TestQuotient:
    def test_collapse(self, algebra_file, capsys, a2):
        assert main(["quotient", algebra_file(CHAIN3), "--filter", "a,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 2
        quotient_alg = parse_algebra_text(json.dumps(doc))
        assert find_isomorphism(quotient_alg, a2) is not None

    def test_trivial_filter(self, algebra_file, capsys, chain3):
        assert main(["quotient", algebra_file(CHAIN3), "--filter", "1"]) == 0
        quotient_alg = parse_algebra_text(capsys.readouterr().out)
        assert find_isomorphism(quotient_alg, chain3) is not None

    def test_not_a_filter(self, algebra_file, capsys):
        """The refusal is theta's, printed whole on one line."""
        assert main(["quotient", algebra_file(CHAIN3), "--filter", "0,1"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: {0,1} is not an implicative filter "
            "(must contain 1 and be closed under modus ponens)\n",
        )

    def test_indices_without_names(self, algebra_file, capsys):
        assert main(["quotient", algebra_file(UNNAMED_CHAIN3), "--filter", "1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 2

    @pytest.mark.parametrize("tokens", ["1,2", "2", "a,2"])
    def test_a_token_is_a_name_when_there_are_names(self, algebra_file, capsys, tokens):
        """chain3's names are 0, a and 1, so 2 names nothing.  1,2 used to
        read 1 as a name and 2 as an index, and gave the trivial quotient."""
        assert main(["quotient", algebra_file(CHAIN3), "--filter", tokens]) == 1
        assert capsys.readouterr() == ("", "error: unknown element '2'\n")

    @pytest.mark.parametrize(
        "tokens, err",
        [
            ("0_1,2", "unknown element '0_1'"),
            ("+1,2", "unknown element '+1'"),
            ("\u0661,2", "unknown element '\u0661'"),  # Arabic-Indic one
            ("\uff11,2", "unknown element '\uff11'"),  # fullwidth one
            ("--1,2", "unknown element '--1'"),
            ("-1,2", "element index -1 out of range [0,3)"),
            ("3,2", "element index 3 out of range [0,3)"),
        ],
    )
    def test_an_index_is_ascii_digits(self, algebra_file, capsys, tokens, err):
        """Without names a token is an index only if it reads -?[0-9]+ in
        ASCII.  int() also takes 0_1, +1 and other scripts' digits, and
        the first four used to give the quotient by {1,2}."""
        assert main(["quotient", algebra_file(UNNAMED_FORK), f"--filter={tokens}"]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize(
        "doc, tokens",
        [pytest.param(CHAIN3, t, id=f"named:{t}") for t in (",1", "a,,1", "1,", " ", "")]
        + [pytest.param(UNNAMED_CHAIN3, t, id=f"unnamed:{t}") for t in (",2", "1,,2", "")],
    )
    def test_an_empty_token_is_refused(self, algebra_file, capsys, doc, tokens):
        """An empty token used to be dropped: ,1 and a,,1 exited 0."""
        assert main(["quotient", algebra_file(doc), "--filter", tokens]) == 1
        assert capsys.readouterr() == ("", "error: unknown element ''\n")


class TestEnumerate:
    def test_round_trip(self, capsys, tmp_path):
        assert main(["enumerate", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            A = parse_algebra_text(line)
            assert validate([list(r) for r in A.arrow]).ok
            path = tmp_path / "emitted.json"
            path.write_text(line)
            assert load_algebra(str(path)).arrow == A.arrow

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_size_below_one_is_usage_error(self, capsys, size):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", size])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == "hilbertalg: error: size must be at least 1"


class TestEnvironment:
    """HILBERT_SIZE_CAP is no longer read: no value of it changes what a
    command prints or how it exits."""

    def test_malformed_value_ignored(self, algebra_file, monkeypatch, capsys):
        monkeypatch.setenv("HILBERT_SIZE_CAP", "abc")
        assert main(["check", algebra_file(CHAIN3)]) == 0
        assert capsys.readouterr() == ("valid Hilbert algebra, size 3\n", "")
        assert main(["enumerate", "6"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 95
        assert err == "95 algebras of size 6\n"

    def test_low_value_ignored(self, monkeypatch, capsys):
        monkeypatch.setenv("HILBERT_SIZE_CAP", "3")
        assert main(["enumerate", "4"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 6
        assert err == "6 algebras of size 4\n"


class TestEntryPoint:
    """python -m hilbertalg.cli in a fresh process, through sys.exit(main()).
    The process gets a 60 s timeout and a 1 GiB address space, so a size
    refusal that regressed into generation fails instead of hanging or
    exhausting memory."""

    @staticmethod
    def run(*argv):
        root = Path(__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if not k.startswith("HILBERT_")}
        env["PYTHONPATH"] = "src"
        return subprocess.run(
            [sys.executable, "-m", "hilbertalg.cli", *argv],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
        )

    def test_verify_enumerate(self):
        done = self.run("verify", "--enumerate", "5", "--nmax", "4")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == (
            "31 algebras checked, 155 (algebra,n) pairs, all agree"
        )

    def test_refused_past_the_cap_before_the_table(self):
        """A size far past the cap is refused before the sizes 1..N are
        filed, so it neither hangs nor runs out of memory."""
        for argv in (("verify", "--enumerate", str(10**12)), ("enumerate", str(10**12))):
            done = self.run(*argv)
            assert (done.returncode, done.stdout) == (1, "")
            assert done.stderr == f"error: size {10**12} exceeds enumeration cap 8\n"

    @pytest.mark.slow
    def test_count_past_the_state_budget(self, tmp_path):
        """31 disjoint 2-chains load (63 elements), and counting their
        3^31 filters would need about 2^32 states: analyze is refused at
        the budget of 2^20."""
        path = tmp_path / "two_chains31.json"
        path.write_text(dump_algebra(two_chains(31)))
        done = self.run("analyze", str(path))
        assert (done.returncode, done.stdout, done.stderr) == (
            1,
            "",
            "error: counting the filters needs more than 1048576 states\n",
        )

    def test_past_the_cap(self):
        done = self.run("enumerate", "9")
        assert (done.returncode, done.stdout, done.stderr) == (
            1,
            "",
            "error: size 9 exceeds enumeration cap 8\n",
        )
