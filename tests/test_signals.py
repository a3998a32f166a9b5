"""Unit and property tests for the symbolic collision-channel algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treesplit.signals import NotContainedError, Signal, cancel, superpose

ids = st.integers(min_value=0, max_value=40)
id_lists = st.lists(ids, max_size=12)


def sig(items) -> Signal:
    return Signal(items)


class TestConstruction:
    def test_empty_is_null(self):
        assert Signal() == Signal([])
        assert len(Signal()) == 0

    def test_order_irrelevant(self):
        assert Signal.of(3, 1, 2) == Signal.of(1, 2, 3)

    def test_multiset_keeps_duplicates(self):
        assert len(Signal([5, 5])) == 2
        assert Signal([5, 5]) != Signal.of(5)

    def test_immutable(self):
        s = Signal.of(1)
        with pytest.raises(AttributeError):
            s.components = (2,)

    def test_hashable_and_iterable(self):
        assert {Signal.of(1, 2), Signal.of(2, 1)} == {Signal.of(1, 2)}
        assert list(Signal.of(2, 1)) == [1, 2]
        assert 2 in Signal.of(1, 2)


class TestCancel:
    def test_exact_peel(self):
        assert cancel(Signal.of(1, 2, 3), Signal.of(2)) == Signal.of(1, 3)

    def test_cancel_null_is_identity(self):
        s = Signal.of(1, 2)
        assert cancel(s, Signal()) == s

    def test_full_cancellation_yields_null(self):
        assert cancel(Signal.of(1, 2), Signal.of(1, 2)) == Signal()

    def test_not_contained_raises(self):
        with pytest.raises(NotContainedError):
            cancel(Signal.of(1, 2), Signal.of(3))

    def test_multiplicity_respected(self):
        with pytest.raises(NotContainedError):
            cancel(Signal.of(5), Signal([5, 5]))
        assert cancel(Signal([5, 5]), Signal.of(5)) == Signal.of(5)


class TestAlgebraProperties:
    @given(id_lists, id_lists)
    def test_superpose_commutes(self, a, b):
        assert superpose([sig(a), sig(b)]) == superpose([sig(b), sig(a)])

    @given(id_lists, id_lists, id_lists)
    def test_superpose_associates(self, a, b, c):
        left = superpose([superpose([sig(a), sig(b)]), sig(c)])
        right = superpose([sig(a), superpose([sig(b), sig(c)])])
        assert left == right

    @given(id_lists, id_lists)
    def test_cancel_inverts_superpose(self, a, b):
        total = superpose([sig(a), sig(b)])
        assert cancel(total, sig(a)) == sig(b)
        assert cancel(total, sig(b)) == sig(a)

    @given(id_lists)
    def test_null_is_identity(self, a):
        assert superpose([sig(a), Signal()]) == sig(a)
        assert superpose([]) == Signal()

    @given(id_lists)
    def test_self_cancellation(self, a):
        assert cancel(sig(a), sig(a)) == Signal()

    @given(st.lists(st.integers(0, 1000), min_size=0, max_size=30, unique=True))
    def test_degree_counts_distinct_users(self, users):
        total = superpose([Signal.of(u) for u in users])
        assert len(total) == len(users)
