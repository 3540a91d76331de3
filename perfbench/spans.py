"""Span recorder for the benchmark's traced run.

It wraps the library's public layer functions from outside, replacing
every module attribute that refers to one of them, since `depth_terms`,
`quotient`, `cli` and `enumeration` import them by name.  Each closed
span adds one call and its self time (duration minus the time of the
spans it caused) to its function's totals; spans are folded into these
totals as they close rather than kept one by one, because the census
pass closes about 200,000 `axioms_hold` spans.

`eval_term` and `iter_bits` are not wrapped: their recursion and inner
loops would run through the wrapper and swamp what is measured.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

TRACED = {
    "core": ("satisfies_identity", "axioms_hold", "validate"),
    "filters": ("all_filters", "meet_irreducibles", "separate", "fg_closure"),
    "quotient": ("theta", "quotient", "correspondence_check"),
    "depth_terms": (
        "depth_leq_via_identity",
        "verify_main_theorem",
        "chain_from_counterexample",
        "subalgebra_from_chain",
    ),
    "enumeration": ("enumerate_hilbert", "all_posets"),
    "files": ("parse_algebra_text",),
    "cli": ("main",),
}

# (span, kind) pairs reported by the traced run, besides trace.overhead_ratio.
REPORTED = (
    ("core.satisfies_identity", "calls"),
    ("core.satisfies_identity", "self_s"),
    ("depth_terms.depth_leq_via_identity", "calls"),
    ("depth_terms.depth_leq_via_identity", "self_s"),
    ("depth_terms.verify_main_theorem", "self_s"),
    ("filters.all_filters", "calls"),
    ("filters.all_filters", "self_s"),
    ("filters.all_filters", "repeat_share"),
    ("filters.meet_irreducibles", "calls"),
    ("filters.meet_irreducibles", "self_s"),
    ("filters.separate", "calls"),
    ("filters.separate", "self_s"),
    ("filters.fg_closure", "calls"),
    ("filters.fg_closure", "self_s"),
    ("quotient.theta", "calls"),
    ("quotient.theta", "self_s"),
    ("quotient.quotient", "self_s"),
    ("quotient.correspondence_check", "calls"),
    ("quotient.correspondence_check", "self_s"),
    ("depth_terms.chain_from_counterexample", "self_s"),
    ("depth_terms.subalgebra_from_chain", "self_s"),
    ("core.axioms_hold", "calls"),
    ("core.axioms_hold", "self_s"),
    ("enumeration.enumerate_hilbert", "self_s"),
    ("enumeration.all_posets", "self_s"),
    ("cli.main", "self_s"),
    ("files.parse_algebra_text", "self_s"),
    ("core.validate", "calls"),
    ("core.validate", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s", "repeat_share": "ratio"}


class SpanRecorder:
    """Per-function call counts and self times for one set-up plus one pass."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self._open = []  # time covered by child spans, one entry per open span
        self._tables_seen = set()
        self.filter_repeats = 0

    def begin_item(self) -> None:
        """Start a new item: repeat_share counts tables seen within one item."""
        self._tables_seen.clear()

    def install(self) -> None:
        """Wrap the traced functions in every loaded hilbertalg module."""
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"hilbertalg.{module}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "hilbertalg" and not modname.startswith("hilbertalg."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap(self, span, fn):
        self.calls[span] = 0
        self.self_s[span] = 0.0
        open_spans = self._open
        on_enter = self._note_filter_table if span == "filters.all_filters" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args[0])
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = open_spans.pop()
                self.calls[span] += 1
                self.self_s[span] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def _note_filter_table(self, algebra) -> None:
        if algebra.arrow in self._tables_seen:
            self.filter_repeats += 1
        else:
            self._tables_seen.add(algebra.arrow)

    def repeat_share(self) -> float:
        calls = self.calls["filters.all_filters"]
        return self.filter_repeats / calls if calls else 0.0
