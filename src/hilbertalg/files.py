"""Algebra files: a JSON document with keys size, arrow, optional names."""

from __future__ import annotations

import json

from .core import FiniteHilbertAlgebra, _repeated_name
from .errors import AlgebraFileError


def parse_algebra_text(text: str) -> FiniteHilbertAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            detail=(exc.lineno, exc.colno),
        ) from exc
    if not isinstance(doc, dict):
        raise AlgebraFileError("document must be a JSON object")
    try:
        size = doc["size"]
        arrow = doc["arrow"]
    except KeyError as exc:
        raise AlgebraFileError(f"missing key {exc.args[0]!r}") from exc
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise AlgebraFileError("size must be a positive integer")
    if (
        not isinstance(arrow, list)
        or len(arrow) != size
        or any(not isinstance(row, list) or len(row) != size for row in arrow)
    ):
        raise AlgebraFileError(f"arrow must be a {size}x{size} matrix")
    names = doc.get("names")
    if names is not None:
        if not isinstance(names, list) or len(names) != size:
            raise AlgebraFileError(f"names must list {size} labels")
        names = [str(x) for x in names]
        repeated = _repeated_name(names)
        if repeated is not None:
            raise AlgebraFileError(f"names must be distinct, {repeated!r} is repeated")
    return FiniteHilbertAlgebra.from_table(arrow, names=names)


def load_algebra(path: str) -> FiniteHilbertAlgebra:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise AlgebraFileError(f"file is not UTF-8 text ({exc.reason})") from exc
    return parse_algebra_text(text)


def dump_algebra(A: FiniteHilbertAlgebra) -> str:
    doc = {"size": A.size, "arrow": [list(row) for row in A.arrow]}
    if A.names is not None:
        doc["names"] = list(A.names)
    return json.dumps(doc)
