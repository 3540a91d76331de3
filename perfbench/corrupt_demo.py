"""Show that the benchmark counts a corrupted library output as a failed item.

    python3 perfbench/corrupt_demo.py

For each workload it runs one clean pass, then one pass in which a
library function's result is corrupted, and prints how many items the
benchmark's own checks failed.  It exits 1 if a clean pass fails an
item or a corrupted one is not caught.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import run


def reversed_tables(lib):
    """enumerate_hilbert emits its classes in reverse order."""
    original = lib.enumeration.enumerate_hilbert
    lib.enumeration.enumerate_hilbert = lambda n: original(n)[::-1]


def non_failing_counterexamples(lib):
    """verify_main_theorem reports x_i = 1 for every counterexample."""
    original = lib.depth_terms.verify_main_theorem

    def corrupted(A, n_max):
        report = original(A, n_max)
        cex = {n: (A.top,) * (n + 1) for n in report.counterexamples}
        return dataclasses.replace(report, counterexamples=cex)

    lib.depth_terms.verify_main_theorem = corrupted


def reversed_witness_chain(lib):
    """subalgebra_from_chain returns its elements top-down."""
    original = lib.depth_terms.subalgebra_from_chain

    def corrupted(A, chain):
        sub = original(A, chain)
        return dataclasses.replace(sub, elements=sub.elements[::-1])

    lib.depth_terms.subalgebra_from_chain = corrupted


# workload -> (corruption, items it must fail)
CASES = {
    "census": (reversed_tables, lambda items: 1),  # the enumerate_hilbert item
    "identity": (non_failing_counterexamples, lambda items: len(items) - 1),  # all but depth 0
    "witness": (reversed_witness_chain, lambda items: sum("n=0" not in i.label for i in items)),
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    with open(run.CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    ok = True
    for name, (corrupt, expected) in CASES.items():
        workload = run.WORKLOADS[name](corpus, random.Random(1))
        _, lib, algebras = run.set_up(workload.texts)
        clean = run.count_failures(workload, run.run_pass(workload, lib, algebras)[1])
        _, lib, algebras = run.set_up(workload.texts)
        corrupt(lib)
        failed = run.count_failures(workload, run.run_pass(workload, lib, algebras)[1])
        want = expected(workload.items)
        print(
            f"{name}: clean pass {clean} failed; {corrupt.__name__}: "
            f"{failed} of {len(workload.items)} failed (expected {want})"
        )
        ok = ok and clean == 0 and failed == want
    print("all corruptions caught" if ok else "a corruption was missed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
