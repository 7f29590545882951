"""A guard on the tree stream for every test.

treegen.tree_stream steps one level list in place, each candidate by one
_lower_at call, which keeps every position before the one it lowers, so
the candidates strictly descend in lexicographic order and the stream
ends. The guard copies the list before each step and fails unless the
step leaves it lexicographically smaller, so a stream that would spin
between two trees without yielding fails at its first such step instead
of hanging the suite. Forked sweep workers inherit the guard; child
interpreters do not.
"""

import pytest

from distpoly import treegen


@pytest.fixture(autouse=True)
def steps_descend(monkeypatch):
    lower_at = treegen._lower_at

    def descending(seq, parent, p, q=None):
        before = seq[:]
        lower_at(seq, parent, p, q)
        if not seq < before:
            raise AssertionError(f"_lower_at({before}, {p}, {q}) left {seq}, not below its input")

    monkeypatch.setattr(treegen, "_lower_at", descending)
