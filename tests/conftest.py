"""A guard on the tree stream for every test.

Each candidate of treegen.tree_stream comes from one _successor_at call,
which keeps every position before the one it lowers, so the candidates
strictly descend in lexicographic order and the stream ends. A stream
that steps in place would spin between two trees without yielding; under
the guard it fails at its first such step instead of hanging the suite.
Forked sweep workers inherit the guard; child interpreters do not.
"""

import pytest

from distpoly import treegen


@pytest.fixture(autouse=True)
def successors_descend(monkeypatch):
    successor_at = treegen._successor_at

    def descending(seq, p, q=None):
        out = successor_at(seq, p, q)
        if not out < seq:
            raise AssertionError(f"_successor_at({seq}, {p}, {q}) = {out} is not below its input")
        return out

    monkeypatch.setattr(treegen, "_successor_at", descending)
