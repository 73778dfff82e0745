"""Young diagrams, multirectangular diagrams, dilation, and Frobenius
coordinates.

A partition is a weakly decreasing tuple of positive integers; () is the
empty diagram.  French convention throughout: row i (1-based) occupies
y in [i-1, i], its j-th box occupies x in [j-1, j], and the contents of a
point (x, y) is x - y.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Sequence

Partition = tuple[int, ...]


def check_partition(rows: Sequence[int]) -> Partition:
    rows = tuple(rows)
    for i, r in enumerate(rows):
        if not isinstance(r, int):
            raise TypeError(f"row lengths must be integers, got {type(r).__name__}")
        if r < 1:
            raise ValueError(f"row lengths must be positive, got {r}")
        if i > 0 and rows[i - 1] < r:
            raise ValueError(f"rows must be weakly decreasing, got {rows}")
    return rows


def parse_partition(text: str) -> Partition:
    """Parse "4,3,1" into (4, 3, 1); the empty string is the empty diagram."""
    text = text.strip()
    if not text:
        return ()
    try:
        rows = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return check_partition(rows)


def conjugate(rows: Partition) -> Partition:
    if not rows:
        return ()
    return tuple(sum(1 for r in rows if r >= j) for j in range(1, rows[0] + 1))


def dilate(rows: Partition, s: int) -> Partition:
    """Replace every box by an s x s grid: each row r becomes s rows of s*r."""
    if s < 1:
        raise ValueError("dilation factor must be >= 1")
    out = []
    for r in rows:
        out.extend([s * r] * s)
    return tuple(out)


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, parts bounded by max_part, largest-first order:
    drop the trailing 1s, lower the last part to v, refill greedily with v."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    parts, v, freed = [], min(n, max_part), n
    while v >= 1:
        q, rem = divmod(freed, v)
        parts += [v] * q + ([rem] if rem else [])
        yield tuple(parts)
        freed = 0
        while parts and parts[-1] == 1:
            freed += parts.pop()
        v = parts.pop() - 1 if parts else 0
        freed += v + 1


def partitions_up_to(n: int) -> Iterator[Partition]:
    """All nonempty partitions with 1 <= |lam| <= n."""
    for m in range(1, n + 1):
        yield from partitions(m)


class FrobeniusCoords(NamedTuple):
    """Shifted Frobenius coordinates: A_i = a_i + 1/2, B_i = b_i + 1/2 where
    a_i, b_i are the arm and leg lengths of the i-th diagonal box."""

    A: tuple[Fraction, ...]
    B: tuple[Fraction, ...]

    def box_count(self) -> Fraction:
        den = lcm(*(x.denominator for x in self.A + self.B))
        return Fraction(sum(x.numerator * (den // x.denominator) for x in self.A + self.B), den)


def frobenius(rows: Partition) -> FrobeniusCoords:
    rows = check_partition(rows)
    A, B, height = [], [], len(rows)
    for i, r in enumerate(rows):
        if r <= i:
            break
        while rows[height - 1] <= i:
            height -= 1
        A.append(Fraction(2 * (r - i) - 1, 2))
        B.append(Fraction(2 * (height - i) - 1, 2))
    return FrobeniusCoords(tuple(A), tuple(B))


def _parse_rationals(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational list {text!r}") from None


class MultiRect:
    """Multirectangular diagram p x q: stacked rectangles, block i of height
    p_i and width q_i, widths weakly decreasing bottom-up.  An immutable
    value: equal and hashed by (p, q), and never assigned to once __init__
    has set both fields."""

    __slots__ = ("p", "q")
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __init__(self, p: Sequence, q: Sequence):
        p, q = tuple(p), tuple(q)
        for x in p + q:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected an exact rational, got {type(x).__name__}")
        p, q = tuple(map(Fraction, p)), tuple(map(Fraction, q))
        if len(p) != len(q):
            raise ValueError("p and q must have equal lengths")
        if any(x < 0 for x in p) or any(x < 0 for x in q):
            raise ValueError("p and q entries must be nonnegative")
        for a, b in zip(q, q[1:]):
            if a < b:
                raise ValueError("q must be weakly decreasing")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not MultiRect:
            return NotImplemented
        return (self.p, self.q) == (other.p, other.q)

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"MultiRect(p={self.p!r}, q={self.q!r})"

    def __reduce__(self):
        return MultiRect, (self.p, self.q)

    @classmethod
    def from_strings(cls, p_text: str, q_text: str) -> "MultiRect":
        return cls(_parse_rationals(p_text), _parse_rationals(q_text))

    def box_count(self) -> Fraction:
        return sum((a * b for a, b in zip(self.p, self.q)), Fraction(0))

    def assignment(self) -> dict:
        """The values of the block variables: p_i -> height, q_i -> width."""
        return {(v, i): x for i, pq in enumerate(zip(self.p, self.q), 1) for v, x in zip("pq", pq)}

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.p + self.q)

    def to_partition(self) -> Partition:
        """(q_1 repeated p_1 times, q_2 repeated p_2 times, ...), zero rows
        dropped; integer entries required."""
        if not self.is_integral():
            raise ValueError("not a concrete partition: entries are not integers")
        rows = []
        for mult, width in zip(self.p, self.q):
            if width > 0:
                rows.extend([int(width)] * int(mult))
        return check_partition(rows)
