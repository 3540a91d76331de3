import pytest

from hilbertalg import FiniteHilbertAlgebra, chain_algebra, enumeration


@pytest.fixture
def trivial():
    """The one-element algebra, depth 0."""
    return FiniteHilbertAlgebra.from_table([[0]])


@pytest.fixture
def a2():
    """Two-element classical implication algebra (0 < 1)."""
    return chain_algebra(1)


@pytest.fixture
def chain3():
    """Goedel chain 0 < a < 1, indices 0, 1, 2."""
    return chain_algebra(2)


@pytest.fixture
def fork():
    """Two incomparable elements x=0, y=1 below top=2."""
    return FiniteHilbertAlgebra.from_table([[2, 1, 2], [0, 2, 2], [0, 1, 2]])


@pytest.fixture
def refuse_generation(monkeypatch):
    """Make building a poset level or closing a poset's up-sets fail the
    test, so a refusal is shown to come before any generation."""

    def refuse(*args):
        raise AssertionError("generation started")

    for name in ("_closed_sets", "_next_classes"):
        monkeypatch.setattr(enumeration, name, refuse)
