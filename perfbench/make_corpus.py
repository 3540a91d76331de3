"""Regenerate perfbench/corpus.json, the benchmark's committed inputs.

    python3 perfbench/make_corpus.py            # rewrite corpus.json
    python3 perfbench/make_corpus.py --check    # compare with the committed file

The posets are generated here, without the library: every poset on k
points has a maximal point, so extending one representative per class on
k-1 points by a new point above each of its down-sets, and keeping one
poset per canonical form, reaches every class on k points.  The class
counts 1, 1, 2, 5, 16, 63 (OEIS A000112) are checked before writing.

Only the census digests come from the library: for each size they pin
the canonical tables `enumerate_hilbert` emits, in their emitted order,
so a change to the generator's output shows as a failed census item.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from oracle import census_digest, poset_canonical_form

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

POSET_COUNTS = [1, 1, 2, 5, 16, 63]  # unlabelled posets on 0..5 points
HILBERT_COUNTS = [1, 1, 2, 6, 21]  # Hilbert algebras on 1..5 elements
CHAIN_SIZES = [4, 8, 16, 31]
CLI_LINE = "31 algebras checked, 155 (algebra,n) pairs, all agree"


def _downsets(leq):
    k = len(leq)
    for mask in range(1 << k):
        members = [a for a in range(k) if mask >> a & 1]
        if all(mask >> b & 1 for a in members for b in range(k) if leq[b][a]):
            yield members


def posets_up_to_iso(kmax: int):
    """{k: [leq matrix, ...]} with one poset per isomorphism class."""
    levels = {0: [()]}
    for k in range(1, kmax + 1):
        seen = {}
        for leq in levels[k - 1]:
            for down in _downsets(leq):
                rows = [list(r) + [False] for r in leq]
                for a in down:
                    rows[a][k - 1] = True
                rows.append([False] * (k - 1) + [True])
                new = tuple(tuple(r) for r in rows)
                seen.setdefault(poset_canonical_form(new), new)
        levels[k] = [seen[c] for c in sorted(seen)]
    return levels


def covers(leq):
    k = len(leq)
    return [
        [a, b]
        for a in range(k)
        for b in range(k)
        if a != b
        and leq[a][b]
        and not any(c not in (a, b) and leq[a][c] and leq[c][b] for c in range(k))
    ]


def longest_chain(leq) -> int:
    k = len(leq)
    best = {}
    for a in sorted(range(k), key=lambda x: sum(leq[y][x] for y in range(k))):
        best[a] = 1 + max((best[b] for b in range(k) if b != a and leq[b][a]), default=0)
    return max(best.values(), default=0)


def chain_table(m: int):
    n = m + 1
    return [[n - 1 if i <= j else j for j in range(n)] for i in range(n)]


def build() -> dict:
    levels = posets_up_to_iso(5)
    counts = [len(levels[k]) for k in range(6)]
    if counts != POSET_COUNTS:
        raise SystemExit(f"poset class counts {counts}, expected {POSET_COUNTS}")
    sys.path.insert(0, str(HERE.parent / "src"))
    from hilbertalg.enumeration import enumerate_hilbert

    digests = []
    for n in range(1, 6):
        found = enumerate_hilbert(n)
        if len(found) != HILBERT_COUNTS[n - 1]:
            raise SystemExit(f"{len(found)} algebras of size {n}, expected {HILBERT_COUNTS[n - 1]}")
        digests.append(census_digest([A.arrow for A in found]))
    return {
        "posets": [
            {"points": k, "covers": covers(leq), "longest_chain": longest_chain(leq)}
            for k in range(6)
            for leq in levels[k]
        ],
        "chains": [{"m": m, "arrow": chain_table(m)} for m in CHAIN_SIZES],
        "census": {
            "hilbert_counts": HILBERT_COUNTS,
            "poset_counts": POSET_COUNTS,
            "hilbert_digests": digests,
            "cli_line": CLI_LINE,
        },
    }


def dump(corpus: dict) -> str:
    lines = ["{", '"posets": [']
    lines.append(",\n".join(json.dumps(p, separators=(",", ":")) for p in corpus["posets"]))
    lines.append("],")
    lines.append('"chains": [')
    lines.append(",\n".join(json.dumps(c, separators=(",", ":")) for c in corpus["chains"]))
    lines.append("],")
    lines.append('"census": ' + json.dumps(corpus["census"]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the committed corpus")
    args = ap.parse_args(argv)
    text = dump(build())
    if args.check:
        same = CORPUS.read_text(encoding="utf-8") == text
        print("corpus.json is up to date" if same else "corpus.json differs")
        return 0 if same else 1
    CORPUS.write_text(text, encoding="utf-8")
    print(f"wrote {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
