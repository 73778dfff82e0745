import pickle
from fractions import Fraction

import pytest

from symchar import diagrams
from symchar.diagrams import (
    MultiRect,
    check_partition,
    conjugate,
    dilate,
    frobenius,
    parse_partition,
    partitions,
    partitions_up_to,
)

# number of partitions of 0..10
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_parse_and_format():
    assert parse_partition("4,3,1") == (4, 3, 1)
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("3,4")
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("2,0")


def test_check_partition_rows_must_be_integers():
    # a float or str row is not truncated or parsed into an integer
    for rows in ((3.7, 2), (3, 2.0), ("3", 2)):
        with pytest.raises(TypeError, match="row lengths must be integers"):
            check_partition(rows)
    assert check_partition([3, 2]) == (3, 2)


def test_partition_counts():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert sum(1 for _ in partitions(n)) == expected
    for rows in partitions(7):
        check_partition(rows)
        assert sum(rows) == 7


def _partitions_recursive(n, max_part):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_recursive(n - first, first):
            yield (first,) + rest


def test_partitions_match_recursive_reference():
    for n in range(21):
        for max_part in range(n + 2):
            assert list(partitions(n, max_part)) == list(_partitions_recursive(n, max_part))
        assert list(partitions(n)) == list(_partitions_recursive(n, n))
    assert list(partitions(3, 0)) == []


def test_dilate_examples():
    assert dilate((2, 1), 1) == (2, 1)
    assert dilate((1,), 2) == (2, 2)
    assert dilate((2, 1), 2) == (4, 4, 2, 2)
    assert sum(dilate((2, 1), 2)) == 4 * 3


def test_dilate_box_count_and_composition():
    for rows in partitions_up_to(5):
        n = sum(rows)
        for s in (2, 3):
            assert sum(dilate(rows, s)) == s * s * n
        for s in (2, 3):
            for t in (2,):
                assert dilate(dilate(rows, s), t) == dilate(rows, s * t)


def test_conjugate_involution():
    for rows in partitions_up_to(8):
        assert conjugate(conjugate(rows)) == rows


def test_frobenius_examples():
    fc = frobenius((2, 1))
    assert fc.A == (Fraction(3, 2),)
    assert fc.B == (Fraction(3, 2),)
    fc = frobenius((4, 3, 1))
    assert fc.A == (Fraction(7, 2), Fraction(3, 2))
    assert fc.B == (Fraction(5, 2), Fraction(1, 2))
    fc = frobenius((1,))
    assert fc.A == (Fraction(1, 2),)
    assert fc.B == (Fraction(1, 2),)
    assert frobenius(()) == diagrams.FrobeniusCoords((), ())
    assert frobenius(()).box_count() == 0
    mixed = diagrams.FrobeniusCoords((Fraction(1, 3), Fraction(2)), (Fraction(1, 2), Fraction(3, 4)))
    assert mixed.box_count() == Fraction(1, 3) + 2 + Fraction(1, 2) + Fraction(3, 4)


def test_frobenius_box_count_identity_exhaustive():
    # sum(A_i + B_i) equals the box count for every partition with n <= 40
    for n in range(1, 41):
        for rows in partitions(n):
            assert frobenius(rows).box_count() == n


def test_multirect_to_partition():
    assert MultiRect((2,), (3,)).to_partition() == (3, 3)
    assert MultiRect((1, 2), (3, 1)).to_partition() == (3, 1, 1)
    assert MultiRect((0, 1), (5, 2)).to_partition() == (2,)
    with pytest.raises(ValueError):
        MultiRect((Fraction(1, 2),), (2,)).to_partition()


def test_multirect_validation():
    with pytest.raises(ValueError, match="^q must be weakly decreasing$"):
        MultiRect((1, 1), (1, 2))
    with pytest.raises(ValueError, match="^p and q must have equal lengths$"):
        MultiRect((1,), (1, 1))
    with pytest.raises(ValueError, match="^p and q entries must be nonnegative$"):
        MultiRect((-1,), (1,))


def test_multirect_entries_must_be_exact():
    # a float or str entry is not read as the rational it is near or spells
    for p, q in (([0.1], [1]), (["1/2"], [1]), ([1], [Fraction(2), 0.5])):
        with pytest.raises(TypeError, match="expected an exact rational"):
            MultiRect(p, q)


def test_multirect_is_an_immutable_value():
    m = MultiRect((1, Fraction(1, 2)), (3, 1))
    assert repr(m) == ("MultiRect(p=(Fraction(1, 1), Fraction(1, 2)), "
                       "q=(Fraction(3, 1), Fraction(1, 1)))")
    twin = MultiRect.from_strings("1,1/2", "3,1")
    assert m == twin and hash(m) == hash(twin)
    assert m != MultiRect((1, 1), (3, 1))
    assert m != (m.p, m.q) and m != (3, 1)
    assert pickle.loads(pickle.dumps(m)) == m
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        m.p = (2,)
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m.p == (1, Fraction(1, 2))


def test_multirect_box_count():
    m = MultiRect((1, 2), (3, 1))
    assert m.box_count() == 5
    assert m.box_count() == sum(m.to_partition())
    m = MultiRect((Fraction(1, 2),), (Fraction(3, 2),))
    assert m.box_count() == Fraction(3, 4)


def test_multirect_from_strings():
    m = MultiRect.from_strings("1,2", "3,1")
    assert m.p == (1, 2)
    assert m.q == (3, 1)
    with pytest.raises(ValueError):
        MultiRect.from_strings("1,a", "3,1")
