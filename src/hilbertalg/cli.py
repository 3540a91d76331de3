"""Command-line front end: check | analyze | verify | quotient | enumerate."""

from __future__ import annotations

import argparse
import sys

from .core import MAX_UNIVERSE, mask_str, subset_of
from .depth_terms import verify_main_theorem
from .dot import hasse_covers, poset_dot
from .enumeration import _MAX_ENUM_CAP, _algebras, _tables, enumerate_hilbert
from .errors import (
    AlgebraFileError,
    HilbertError,
    InvalidAlgebraError,
    SizeLimitError,
)
from .files import dump_algebra, load_algebra
from .filters import (
    _count_filters,
    _fg_with,
    all_filters,
    depth,
    meet_irreducibles,
)
from .quotient import quotient

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# Largest --nmax verify accepts.  A loadable algebra has at most
# MAX_UNIVERSE elements, so a strict chain of its proper filters, and so
# its depth, has at most MAX_UNIVERSE - 1 members: every row past this
# one would say "yes, yes, agree" like this one.
NMAX_LIMIT = MAX_UNIVERSE - 1

# Most filters analyze --filters and --dot list.  Listing fan(16)'s 65,536
# filters takes about 0.7 s, and 4.6 s with the DOT export; each point
# more doubles that, and fan(63) has 2^63.
FILTER_LIST_LIMIT = 1 << 16


def cmd_check(args) -> int:
    try:
        A = load_algebra(args.path)
    except InvalidAlgebraError as exc:
        print(exc.report.summary())
        return EXIT_DOMAIN
    print(f"valid Hilbert algebra, size {A.size}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    A = load_algebra(args.path)
    points = meet_irreducibles(A)
    d = depth(A)
    k = _count_filters(A)
    if (args.filters or args.dot) and k > FILTER_LIST_LIMIT:
        raise SizeLimitError(
            f"{k} filters exceed the listing limit {FILTER_LIST_LIMIT} of "
            "--filters and --dot"
        )
    m = len(points)
    plural = "" if k == 1 else "s"
    # d is the longest chain: all m >= 1 points form one iff d == m, and
    # no two are comparable iff d == 1 (m == 1 is a chain).
    shape = f" ({'chain' if d == m else 'antichain' if d == 1 else 'poset'})" if m else ""
    print(f"{k} filter{plural}, spectrum {m}{shape}, depth {d}")
    label = lambda F: mask_str(F, A.names)
    lattice = all_filters(A) if args.filters or args.dot else ()
    if args.filters:
        for F in lattice:
            print(f"  filter {label(F)}")
    covers = hasse_covers(points, lambda F: (G for G in points if G != F and F & G == F))
    if args.spectrum or m:
        rel = ", ".join(f"{label(points[i])} < {label(points[j])}" for i, j in covers)
        print(f"spectrum Hasse: {rel or '(no covers)'}")
        if args.spectrum:
            for F in points:
                print(f"  meet-irreducible {label(F)}")
    if args.depth:
        print(f"depth: {d}")
    if args.dot:
        # each cover of F is a one-element extension Fg(F | {a})
        extensions = lambda F: (_fg_with(A, F, a) for a in range(A.size) if not F >> a & 1)
        lattice_covers = hasse_covers(lattice, extensions)
        with open(args.dot + "-filters.dot", "w", encoding="utf-8") as fh:
            fh.write(poset_dot([label(F) for F in lattice], lattice_covers, "filters"))
        with open(args.dot + "-spectrum.dot", "w", encoding="utf-8") as fh:
            fh.write(poset_dot([label(F) for F in points], covers, "spectrum"))
    return EXIT_OK


def _print_report(A, report) -> None:
    for n, depth_leq, identity, agree in report.rows:
        cex = report.counterexamples.get(n)
        extra = f", counterexample {cex}" if cex is not None else ""
        print(
            f"n={n}: depth<={n} {'yes' if depth_leq else 'no'}, "
            f"d_{n} holds {'yes' if identity else 'no'}, "
            f"{'agree' if agree else 'DISAGREE'}{extra}"
        )


def cmd_verify(args) -> int:
    nmax = args.nmax
    if args.enumerate is not None:
        tables = _tables(args.enumerate, range(1, args.enumerate + 1))  # one poset walk
        algebras = [A for size, flats in tables.items() for A in _algebras(size, flats)]
        pairs = 0
        bad = 0
        for A in algebras:
            report = verify_main_theorem(A, nmax)
            pairs += len(report.rows)
            if not report.all_agree:
                bad += 1
                print(f"disagreement on table {A.arrow}:")
                _print_report(A, report)
        if bad:
            print(f"{len(algebras)} algebras checked, {bad} disagree")
            return EXIT_DOMAIN
        print(f"{len(algebras)} algebras checked, {pairs} (algebra,n) pairs, all agree")
        return EXIT_OK
    A = load_algebra(args.path)
    report = verify_main_theorem(A, nmax)
    print(f"depth {report.depth}")
    _print_report(A, report)
    return EXIT_OK if report.all_agree else EXIT_DOMAIN


def cmd_quotient(args) -> int:
    A = load_algebra(args.path)
    elements = [A.element_named(tok.strip()) for tok in args.filter.split(",")]
    result = quotient(A, subset_of(elements))
    print(dump_algebra(result.algebra))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    algebras = enumerate_hilbert(args.size)
    for A in algebras:
        print(dump_algebra(A))
    print(f"{len(algebras)} algebras of size {args.size}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbertalg",
        description="Finite Hilbert algebras: filters, spectra, depth, "
        "and the d_n equational depth test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="filters, spectrum, depth of an algebra")
    p.add_argument("path")
    p.add_argument("--filters", action="store_true", help="list every filter")
    p.add_argument("--spectrum", action="store_true", help="list the spectrum")
    p.add_argument("--depth", action="store_true", help="print the depth line")
    p.add_argument("--dot", metavar="OUT", help="write OUT-filters.dot and OUT-spectrum.dot")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="check depth<=n against d_n = 1")
    p.add_argument("path", nargs="?", help="algebra file (omit with --enumerate)")
    p.add_argument(
        "--enumerate",
        type=int,
        metavar="N",
        help="verify every algebra with at most N elements",
    )
    p.add_argument(
        "--nmax",
        type=int,
        default=4,
        help=f"largest n to test, 0..{NMAX_LIMIT} (default 4)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quotient", help="emit the quotient by a filter")
    p.add_argument("path")
    p.add_argument(
        "--filter",
        required=True,
        help="comma-separated filter elements (names when present, else indices)",
    )
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser(
        "enumerate",
        help=f"emit all algebras of a size, one JSON line each (cap {_MAX_ENUM_CAP})",
    )
    p.add_argument("size", type=int)
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if (args.path is None) == (args.enumerate is None):
            parser.error("verify needs exactly one of PATH or --enumerate N")
        if args.nmax < 0:
            parser.error("--nmax must be at least 0")
        if args.nmax > NMAX_LIMIT:
            parser.error(
                f"--nmax must be at most {NMAX_LIMIT}, the largest depth of an "
                f"algebra with at most {MAX_UNIVERSE} elements"
            )
        if args.enumerate is not None and args.enumerate < 1:
            parser.error("--enumerate must be at least 1")
    if args.command == "enumerate" and args.size < 1:
        parser.error("size must be at least 1")
    try:
        return args.func(args)
    except AlgebraFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HilbertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
