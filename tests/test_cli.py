import json
import re

import pytest

from hilbertalg import find_isomorphism, validate
from hilbertalg.cli import NMAX_LIMIT, main
from hilbertalg.files import dump_algebra, load_algebra, parse_algebra_text
from hilbertalg.errors import AlgebraFileError

CHAIN3 = {"size": 3, "arrow": [[2, 2, 2], [0, 2, 2], [0, 1, 2]], "names": ["0", "a", "1"]}
FORK = {"size": 3, "arrow": [[2, 1, 2], [0, 2, 2], [0, 1, 2]], "names": ["x", "y", "1"]}
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

    def test_bool_entries(self, algebra_file, capsys):
        doc = {"size": 2, "arrow": [[True, True], [False, True]]}
        assert main(["check", algebra_file(doc)]) == 1
        assert "entry [0][0] = True" in capsys.readouterr().err

    def test_malformed_size_cap(self, algebra_file, monkeypatch, capsys):
        monkeypatch.setenv("HILBERT_SIZE_CAP", "abc")
        assert main(["check", algebra_file(CHAIN3)]) == 2
        assert "HILBERT_SIZE_CAP must be a positive integer" in capsys.readouterr().err


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


class TestVerify:
    def test_enumerate_three(self, capsys):
        assert main(["verify", "--enumerate", "3", "--nmax", "3"]) == 0
        out = capsys.readouterr().out
        assert "4 algebras checked, 16 (algebra,n) pairs, all agree" in out

    def test_enumerate_six(self, monkeypatch, capsys):
        monkeypatch.setenv("HILBERT_SIZE_CAP", "6")
        assert main(["verify", "--enumerate", "6", "--nmax", "5"]) == 0
        out = capsys.readouterr().out
        assert "126 algebras checked, 756 (algebra,n) pairs, all agree" in out

    @pytest.mark.parametrize("n", [6, 8])
    def test_enumerate_past_the_cap(self, monkeypatch, capsys, n):
        """The first size past the cap is refused, with nothing on stdout."""
        monkeypatch.delenv("HILBERT_SIZE_CAP", raising=False)
        assert main(["verify", "--enumerate", str(n)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: size 6 exceeds enumeration cap 5\n"

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
        assert main(["quotient", algebra_file(CHAIN3), "--filter", "0,1"]) == 1
        assert "not an implicative filter" in capsys.readouterr().err

    def test_indices_without_names(self, algebra_file, capsys):
        doc = {"size": 3, "arrow": CHAIN3["arrow"]}
        assert main(["quotient", algebra_file(doc), "--filter", "1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["size"] == 2


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
