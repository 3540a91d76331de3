"""DOT export of Hasse diagrams for filter lattices and spectra."""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple


def hasse_covers(items: Sequence[int], above: Callable[[int], Iterable[int]]) -> List[Tuple[int, int]]:
    """Covering pairs (i, j), in order: mask items[j] covers items[i].
    above(F) holds every cover of F and only strict supersets of F, so
    the covers are its minimal members."""
    index = {F: i for i, F in enumerate(items)}
    covers = []
    for i, F in enumerate(items):
        larger = set(above(F))
        minimal = (G for G in larger if not any(H != G and H & G == H for H in larger))
        covers += sorted((i, index[G]) for G in minimal)
    return covers


def poset_dot(labels: Sequence[str], covers: Sequence[Tuple[int, int]], name: str = "poset") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, label in enumerate(labels):
        escaped = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{escaped}"];')
    for i, j in covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
