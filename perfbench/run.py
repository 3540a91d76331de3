"""hilbertalg benchmark: three single-threaded, closed-loop workloads.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 40 --trace 0

One client runs the workload's items in a seeded order, each item starting
when the previous verdict returns.  A pass is one run over every item; the
benchmark repeats set-up + pass while another pass fits in --seconds,
checks every output against answers known without the library (see
oracle.py) and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with traced ones (spans.py) and reports the per-layer metrics.
Before each pass the library is imported afresh and the corpus parsed
again, so nothing the library keeps is shared across passes.  Every
reported time is scaled to the machine's speed, sampled between items
(speed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle
from spans import REPORTED, UNITS, SpanRecorder
from speed import SpeedReference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CORPUS = HERE / "corpus.json"
PYCACHE = HERE.parent / ".bench_build" / "pycache"

MODULES = ("core", "filters", "quotient", "depth_terms", "enumeration", "files", "cli")
NMAX = 4  # largest n in the identity workload, as in `verify --nmax 4`
CLI_ARGV = ["verify", "--enumerate", "5", "--nmax", "4"]
SETUP_SAMPLES = 21  # least number of set-ups per run; setup_s is their median
SETUPS_PER_PASS = 3  # set-ups timed before each pass, so they spread over the run


class Library:
    """The hilbertalg modules of one fresh import."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"hilbertalg.{name}"))


def forget_library() -> None:
    """Drop every hilbertalg module, and collect the previous import's
    objects now rather than at a random point of the next set-up."""
    for name in [m for m in sys.modules if m == "hilbertalg" or m.startswith("hilbertalg.")]:
        del sys.modules[name]
    gc.collect()


@dataclass
class Item:
    label: str
    call: Callable  # (Library, parsed algebras) -> output
    check: Callable  # output -> bool


@dataclass
class Workload:
    texts: list  # algebra files, parsed in set-up
    items: list


# ---------------------------------------------------------------------------
# workloads


def census(corpus, rng) -> Workload:
    """Generation layer plus the CLI command users run; no input files.

    The twelve calls form three items.  Taken one by one, the middle of
    twelve items would be a sub-millisecond call such as
    enumerate_hilbert(3), too short to time steadily on a shared machine.
    """
    known = corpus["census"]
    poset_forms = {}
    for p in corpus["posets"]:
        leq = oracle.leq_from_covers(p["points"], p["covers"])
        poset_forms.setdefault(p["points"], []).append(oracle.poset_canonical_form(leq))

    def check_algebras(by_size):
        for n, algebras in enumerate(by_size, start=1):
            tables = [A.arrow for A in algebras]
            if not (
                len(tables) == known["hilbert_counts"][n - 1]
                and all(oracle.is_hilbert(t) for t in tables)
                and len({oracle.hilbert_canonical_form(t) for t in tables}) == len(tables)
                and oracle.census_digest(tables) == known["hilbert_digests"][n - 1]
            ):
                return False
        return True

    def check_posets(by_points):
        return all(
            len(posets) == known["poset_counts"][k]
            and all(oracle.is_partial_order(P.leq) for P in posets)
            and sorted(oracle.poset_canonical_form(P.leq) for P in posets)
            == sorted(poset_forms[k])
            for k, posets in enumerate(by_points)
        )

    def run_cli(lib, _):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(CLI_ARGV)
        return code, out.getvalue()

    items = [
        Item(
            "enumerate_hilbert(n) for n = 1..5",
            lambda lib, _: [lib.enumeration.enumerate_hilbert(n) for n in range(1, 6)],
            check_algebras,
        ),
        Item(
            "all_posets(k, up_to_iso=True) for k = 0..5",
            lambda lib, _: [lib.enumeration.all_posets(k, up_to_iso=True) for k in range(6)],
            check_posets,
        ),
        Item(
            "hilbertalg " + " ".join(CLI_ARGV),
            run_cli,
            lambda out: out[0] == 0 and out[1].splitlines()[-1] == known["cli_line"],
        ),
    ]
    rng.shuffle(items)
    return Workload(texts=[], items=items)


def _relabelled(table, rng) -> list:
    perm = list(range(len(table)))
    rng.shuffle(perm)
    return oracle.relabel(table, perm)


def _text(table) -> str:
    return json.dumps({"size": len(table), "arrow": table})


def identity(corpus, rng) -> Workload:
    """verify_main_theorem(A, 4) on the reducts of posets with <= 4 points
    and on four chains: one use of the filter layer per algebra, and the
    brute-force d_n scan."""
    inputs = [
        (oracle.upset_reduct(p["points"], p["covers"]), p["longest_chain"])
        for p in corpus["posets"]
        if p["points"] <= 4
    ]
    tables = [_relabelled(t, rng) for t, _ in inputs]
    # The chains keep their own labelling: their d_n rows all fail, and the
    # brute-force scan stops at the least failing assignment, whose place
    # in the scan a relabelling moves by orders of magnitude (0.2 s to
    # 5.8 s for the 32-element chain), so a seeded labelling would make
    # run_s depend on the seed.
    inputs += [(c["arrow"], c["m"]) for c in corpus["chains"]]
    tables += [c["arrow"] for c in corpus["chains"]]

    def item(i, depth):
        table = tables[i]
        one = oracle.top_of(table)

        def check(report):
            rows = tuple((n, depth <= n, depth <= n, True) for n in range(NMAX + 1))
            failing = {n for n in range(NMAX + 1) if depth > n}
            return (
                report.depth == depth
                and tuple(report.rows) == rows
                and set(report.counterexamples) == failing
                and all(
                    len(cex) == n + 1 and oracle.d_value(table, cex) != one
                    for n, cex in report.counterexamples.items()
                )
            )

        return Item(
            f"verify_main_theorem(#{i}, {NMAX})",
            lambda lib, algebras: lib.depth_terms.verify_main_theorem(algebras[i], NMAX),
            check,
        )

    items = [item(i, depth) for i, (_, depth) in enumerate(inputs)]
    rng.shuffle(items)
    return Workload(texts=[_text(t) for t in tables], items=items)


def witness(corpus, rng) -> Workload:
    """Both proof procedures for every failing (A, n), n < depth(A), over
    the reducts of the 63 posets on 5 points: repeated use of the filter
    layer on one algebra."""
    inputs = [
        (oracle.upset_reduct(p["points"], p["covers"]), p["longest_chain"])
        for p in corpus["posets"]
        if p["points"] == 5
    ]
    tables = [_relabelled(t, rng) for t, _ in inputs]

    def item(i, n):
        table = tables[i]
        one = oracle.top_of(table)

        def call(lib, algebras):
            A = algebras[i]
            holds, cex = lib.depth_terms.depth_leq_via_identity(A, n)
            chain = lib.depth_terms.chain_from_counterexample(A, cex, n)
            sub = lib.depth_terms.subalgebra_from_chain(A, chain)
            return holds, cex, chain.filters, sub.elements

        def check(out):
            holds, cex, filters, elements = out
            if holds or len(cex) != n + 1 or oracle.d_value(table, cex) == one:
                return False
            if len(filters) != n + 1 or len(elements) != n + 1:
                return False
            if not all(F & G == F and F != G for F, G in zip(filters, filters[1:])):
                return False
            if not all(
                oracle.is_filter(table, F) and oracle.is_meet_irreducible(table, F)
                for F in filters
            ):
                return False
            closed = 1 << one
            for a in elements:
                closed |= 1 << a
            return (
                one not in elements
                and len(set(elements)) == n + 1
                and all(table[a][b] == one for a, b in zip(elements, elements[1:]))
                and oracle.is_subuniverse(table, closed)
                and all(
                    oracle.d_value(table, elements[: k + 1]) == elements[k]
                    for k in range(n + 1)
                )
                and not filters[0] >> elements[-1] & 1
            )

        return Item(f"witness(#{i}, n={n})", call, check)

    items = [item(i, n) for i, (_, depth) in enumerate(inputs) for n in range(depth)]
    rng.shuffle(items)
    return Workload(texts=[_text(t) for t in tables], items=items)


WORKLOADS = {"census": census, "identity": identity, "witness": witness}


# ---------------------------------------------------------------------------
# measurement


def set_up(texts, recorder=None):
    """Fresh import plus parsing every input file: what a user pays before
    the first item.  Returns (seconds, library, parsed algebras)."""
    forget_library()
    t0 = perf_counter()
    lib = Library()
    if recorder is not None:
        recorder.install()
    algebras = [lib.files.parse_algebra_text(t) for t in texts]
    return perf_counter() - t0, lib, algebras


def run_pass(workload, lib, algebras, reference=None, recorder=None):
    """One closed-loop pass, with the reference ticking between items.
    Returns (item seconds, outputs)."""
    times = []
    outputs = []
    for item in workload.items:
        if reference is not None:
            reference.tick_if_due()
        if recorder is not None:
            recorder.begin_item()
        t0 = perf_counter()
        try:
            out = item.call(lib, algebras)
        except (Exception, SystemExit) as exc:  # a raising item is a failed item
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
    return times, outputs


def count_failures(workload, outputs) -> int:
    failed = 0
    for item, out in zip(workload.items, outputs):
        if isinstance(out, BaseException):
            ok = False
            why = f"raised {out!r}"
        else:
            try:
                ok = bool(item.check(out))
            except Exception:  # a malformed output fails its check
                ok = False
            why = "wrong answer"
        if not ok:
            failed += 1
            print(f"FAILED {item.label}: {why}", file=sys.stderr)
    return failed


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _out_of_time(start, rounds, seconds) -> bool:
    """True when another round like the average one would overrun --seconds."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / rounds > seconds


def one_pass(workload, reference, recorder=None):
    """Set up, run every item once and check the outputs.  Returns
    (set-up seconds, item seconds, items failed); nothing of the pass
    outlives the call.  The pass's time is the sum of its item times,
    which leaves out the reference's ticks between items."""
    setup_s, lib, algebras = set_up(workload.texts, recorder)
    times, outputs = run_pass(workload, lib, algebras, reference, recorder)
    return setup_s, times, count_failures(workload, outputs)


def measure(workload, reference, seconds):
    setup_times = []
    pass_times = []
    item_times = [[] for _ in workload.items]
    failed = 0
    start = perf_counter()
    while True:
        setup_times += [set_up(workload.texts)[0] for _ in range(SETUPS_PER_PASS - 1)]
        setup_s, times, pass_failed = one_pass(workload, reference)
        setup_times.append(setup_s)
        pass_times.append(sum(times))
        for samples, t in zip(item_times, times):
            samples.append(t)
        failed += pass_failed
        if _out_of_time(start, len(pass_times), seconds):
            break
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(set_up(workload.texts)[0])
    scale = reference.scale()
    per_item_ms = [statistics.median(s) * 1e3 * scale for s in item_times]
    metrics = {
        "run_s": metric(statistics.median(pass_times) * scale, "s"),
        "item_ms.p50": metric(statistics.median(per_item_ms), "ms"),
        "item_ms.p90": metric(statistics.quantiles(per_item_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_times) * scale, "s"),
    }
    print("unscaled pass seconds: " + " ".join(f"{t:.3f}" for t in pass_times), file=sys.stderr)
    print_scale(reference)
    return len(pass_times), failed, metrics


def print_scale(reference) -> None:
    print(
        f"{len(reference.ticks)} reference ticks, trimmed mean "
        f"{reference.mean_tick() * 1e3:.3f} ms; times scaled by {reference.scale():.4f}",
        file=sys.stderr,
    )


def measure_traced(workload, reference, seconds):
    """Alternate untraced and traced passes; report per-layer metrics."""
    plain = []
    traced = []
    recorders = []
    failed = 0
    start = perf_counter()
    while True:
        _, plain_times, plain_failed = one_pass(workload, reference)
        recorder = SpanRecorder()
        _, traced_times, traced_failed = one_pass(workload, reference, recorder)
        plain.append(sum(plain_times))
        traced.append(sum(traced_times))
        recorders.append(recorder)
        failed += plain_failed + traced_failed
        if _out_of_time(start, len(traced), seconds):
            break
    print("unscaled untraced pass seconds: " + " ".join(f"{t:.3f}" for t in plain), file=sys.stderr)
    print("unscaled traced pass seconds: " + " ".join(f"{t:.3f}" for t in traced), file=sys.stderr)
    print_scale(reference)
    scale = reference.scale()
    first = recorders[0]
    repeatable = all(r.calls == first.calls for r in recorders)
    if not repeatable:
        print("traced passes disagree on call counts", file=sys.stderr)
    metrics = {}
    for span, kind in REPORTED:
        if kind == "calls":
            value = first.calls[span]
        elif kind == "self_s":
            value = statistics.median(r.self_s[span] for r in recorders) * scale
        else:
            value = first.repeat_share()
        metrics[f"{span}.{kind}"] = metric(value, UNITS[kind])
    ratio = statistics.median(t / p for t, p in zip(traced, plain))
    metrics["trace.overhead_ratio"] = metric(ratio, "ratio")
    return 2 * len(traced), failed, metrics, repeatable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hilbertalg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Every set-up imports the library afresh.  Compiling it once into a
    # cache inside the checkout makes each one load bytecode, as an
    # installed package does, whatever the environment says about .pyc files.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    try:
        lib = Library()
    except ImportError as exc:
        print(f"error: cannot import hilbertalg from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(lib.core.__file__).resolve().is_relative_to(SRC):
        print(f"error: hilbertalg was imported from {lib.core.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = json.load(fh)
    workload = WORKLOADS[args.workload](corpus, random.Random(args.seed))
    reference = SpeedReference(corpus)

    repeatable = True
    if args.trace:
        passes, failed, metrics, repeatable = measure_traced(workload, reference, args.seconds)
    else:
        passes, failed, metrics = measure(workload, reference, args.seconds)
    attempted = passes * len(workload.items)
    print(
        f"{args.workload} seed {args.seed}: {passes} passes of {len(workload.items)} items, "
        f"{failed} of {attempted} failed",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
