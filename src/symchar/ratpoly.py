"""Exact sparse multivariate polynomials over rationals in the indexed
variable families S_j, R_j (j >= 2) and p_i, q_i (i >= 1).

A variable is a pair (family, index) with family one of "S", "R", "p", "q".
A monomial is a tuple of (variable, exponent) pairs in canonical order.
All coefficients are fractions.Fraction; no floating point anywhere.

Canonical text form: terms ordered by descending weight (S_j and R_j weigh
j, all other variables weigh 1), ties broken lexicographically on the
descending variable sequence, e.g. "R7 + 35*R5 + 35*R3*R2 + 84*R3".
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import factorial, lcm, prod
from typing import Iterable, Mapping, Union

CACHE_SIZE = 256  # entries kept by each lru_cache of polynomial results

Var = tuple[str, int]
Mono = tuple[tuple[Var, int], ...]

_CANON_RANK = {"p": 0, "q": 1, "R": 2, "S": 3}
_PRINT_RANK = {"S": 0, "R": 1, "p": 2, "q": 3}
_MIN_INDEX = {"S": 2, "R": 2, "p": 1, "q": 1}


def make_var(family: str, index: int = 1) -> Var:
    if family not in _CANON_RANK:
        raise ValueError(f"unknown variable family {family!r}")
    if type(index) is not int:
        raise TypeError(f"variable index must be an int, got {type(index).__name__}")
    if index < _MIN_INDEX[family]:
        raise ValueError(f"index {index} too small for family {family!r}")
    return (family, index)


def var_name(v: Var) -> str:
    return f"{v[0]}{v[1]}"


def parse_var_name(name: str) -> Var:
    m = re.fullmatch(r"([SRpq])(\d+)", name)
    if not m:
        raise ValueError(f"malformed variable name {name!r}")
    return make_var(m.group(1), int(m.group(2)))


def _var_key(v: Var) -> tuple[int, int]:
    return (_CANON_RANK[v[0]], v[1])


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def normalize_mono(mono: Union[Mono, Mapping[Var, int]]) -> Mono:
    if isinstance(mono, tuple):
        pairs = list(mono)
    else:
        pairs = list(mono.items())
    merged: dict[Var, int] = {}
    for var, exp in pairs:
        fam, idx = var
        make_var(fam, idx)
        if type(exp) is not int:
            raise TypeError(f"exponent must be an int, got {type(exp).__name__}")
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items(), key=lambda it: _var_key(it[0])))


def mono_weight(mono: Mono) -> int:
    """Grading weight: S_j and R_j weigh j, the p and q variables weigh 1."""
    total = 0
    for (fam, idx), exp in mono:
        total += (idx if fam in ("S", "R") else 1) * exp
    return total


def _term_sort_key(mono: Mono):
    seq = []
    for var, exp in sorted(mono, key=lambda it: _var_key(it[0]), reverse=True):
        rank, idx = _var_key(var)
        seq.extend([(-rank, -idx)] * exp)
    return (-mono_weight(mono), tuple(seq))


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for var, exp in m2:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items(), key=lambda it: _var_key(it[0])))


def _collect(pairs: Iterable[tuple[Mono, Fraction]]) -> dict[Mono, Fraction]:
    """The one place where polynomial terms merge: sums the Fraction
    coefficients of equal canonical monomials and drops the zero sums."""
    out: dict[Mono, Fraction] = {}
    for mono, coeff in pairs:
        acc = out.get(mono)
        out[mono] = coeff if acc is None else acc + coeff
    return {mono: coeff for mono, coeff in out.items() if coeff}


class RatPoly:
    """Immutable sparse polynomial; operations return fresh values."""

    __slots__ = ("_terms", "_eval")

    def __init__(self, terms: Mapping | None = None):
        self._terms = _collect((normalize_mono(mono), _as_fraction(coeff))
                               for mono, coeff in (terms or {}).items())

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "RatPoly":
        return cls({(): _as_fraction(c)})

    @classmethod
    def variable(cls, v: Var) -> "RatPoly":
        return cls({((make_var(*v), 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[Mono, Fraction]]:
        """Terms in canonical print order."""
        return sorted(self._terms.items(), key=lambda it: _term_sort_key(it[0]))

    def terms(self) -> Iterable[tuple[Mono, Fraction]]:
        """Terms in no particular order, without the sort that items() does."""
        return self._terms.items()

    def variables(self) -> set[Var]:
        return {var for mono in self._terms for var, _ in mono}

    def coefficient_of(self, mono) -> Fraction:
        return self._terms.get(normalize_mono(mono), Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == RatPoly.const(other)
        return NotImplemented

    __hash__ = None

    def __getstate__(self):
        # copies and pickles carry the terms alone: the form that evaluate
        # keeps is derived from them
        return None, {"_terms": self._terms}

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._from_canonical(_collect(chain(self._terms.items(), other._terms.items())))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return self._from_canonical({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "RatPoly":
        return self + (-other if isinstance(other, RatPoly) else RatPoly.const(-_as_fraction(other)))

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._from_canonical(_collect(
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self._terms.items() for m2, c2 in other._terms.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = RatPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    @classmethod
    def _from_canonical(cls, terms: dict[Mono, Fraction]) -> "RatPoly":
        """The trusted constructor: adopts `terms` as is, without the
        validation and normalization that RatPoly(...) does.

        Every key must be a canonical monomial (variables made by make_var,
        positive exponents, sorted by family rank and index, as
        normalize_mono returns it), every value a non-zero Fraction, and the
        dict must not be used by the caller afterwards.  Only symchar's own
        builders, which produce such terms by construction, call it.
        """
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    def derivative_at_zero(self, variables: Iterable[Var]) -> Fraction:
        """Iterated partial derivative, then every S- and R-family variable
        set to 0: the coefficient of x^e, e_v the times v is listed, times
        prod_v e_v!.  The p and q variables are never implicitly zeroed; a
        term x^e times a non-constant monomial in them is an error."""
        need = Counter(make_var(*v) for v in variables)
        result = Fraction(0)
        for mono, coeff in self._terms.items():
            rest = Counter(dict(mono))
            rest.subtract(need)
            left = tuple(it for it in rest.items() if it[1])
            if any(e < 0 or fam in ("S", "R") for (fam, _), e in left):
                continue
            if left:
                raise ValueError(
                    "derivative does not evaluate to a constant; "
                    f"p/q variables remain: {left}")
            result = coeff * prod(map(factorial, need.values()))
        return result

    def evaluate(self, assignment: Mapping[Var, object]) -> Fraction:
        """The exact value at `assignment`, which must give every variable
        that occurs.  Every key and value is validated, also the unused ones.

        Integer kernel: with D the lcm of the denominators of the values
        read and C that of the coefficients, a term c x^e of degree |e| is
        (C c)(D x)^e D^(top-|e|) over C D^top, top the largest degree, so
        the sum runs in integers and one Fraction is built at the end.  The
        first call keeps what depends on the polynomial alone, the set of
        variables that occur, C and each term as (C c, e, |e|), for the
        calls after it.
        """
        values = {}
        for v, x in assignment.items():
            if (type(v) is not tuple or len(v) != 2 or v[0] not in _MIN_INDEX
                    or v[1] < _MIN_INDEX[v[0]]):
                v = make_var(*v)  # the general path, which raises on a bad key
            values[v] = x if isinstance(x, Fraction) else _as_fraction(x)
        try:
            used, cden, terms = self._eval
        except AttributeError:
            cden = lcm(*(c.denominator for c in self._terms.values()))
            used, terms = frozenset(self.variables()), tuple(
                (c.numerator * (cden // c.denominator), mono, sum(e for _, e in mono))
                for mono, c in self._terms.items())
            self._eval = used, cden, terms
        missing = used - values.keys()
        if missing:
            names = ", ".join(sorted(var_name(v) for v in missing))
            raise KeyError(f"assignment missing variables: {names}")
        den = lcm(*(values[v].denominator for v in used))
        ints = {v: values[v].numerator * (den // values[v].denominator) for v in used}
        by_degree: dict[int, int] = {}
        for term, mono, degree in terms:
            for var, exp in mono:
                term *= ints[var] ** exp
            by_degree[degree] = by_degree.get(degree, 0) + term
        top = max(by_degree, default=0)
        total = sum(t * den ** (top - d) for d, t in by_degree.items())
        return Fraction(total, cden * den ** top)

    def substitute(self, replacements: Mapping[Var, "RatPoly"]) -> "RatPoly":
        """Replace variables by polynomials; unmentioned variables persist.
        Each (variable, exponent) factor that occurs is raised once per call,
        and that power multiplies every term that has the factor."""
        reps = {make_var(*v): poly for v, poly in replacements.items()}
        powers, pairs = {}, []
        for mono, coeff in self._terms.items():
            term = RatPoly.const(coeff)
            for factor in mono:
                power = powers.get(factor)
                if power is None:
                    var, exp = factor
                    base = reps.get(var)
                    if base is None:
                        base = RatPoly.variable(var)
                    power = powers[factor] = base ** exp
                term = term * power
            pairs.extend(term._terms.items())
        return self._from_canonical(_collect(pairs))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in self.items():
            pieces = []
            for var, exp in sorted(mono, key=lambda it: (_PRINT_RANK[it[0][0]], -it[0][1])):
                pieces.append(var_name(var) if exp == 1 else f"{var_name(var)}^{exp}")
            mag = abs(coeff)
            if not pieces:
                body = str(mag)
            elif mag == 1:
                body = "*".join(pieces)
            else:
                body = "*".join([str(mag)] + pieces)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(chunks)

    __repr__ = __str__

    @classmethod
    def from_text(cls, text: str) -> "RatPoly":
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero()
        chunks = re.findall(r"[+-]?[^+-]+", s)
        if "".join(chunks) != s:
            raise ValueError(f"malformed polynomial text {text!r}")
        pairs = []
        for chunk in chunks:
            coeff = Fraction(-1 if chunk[0] == "-" else 1)
            mono = []
            for piece in chunk.lstrip("+-").split("*"):
                # a zero denominator is malformed text, like any other
                num = re.fullmatch(r"(\d+)(?:/(0*[1-9]\d*))?", piece)
                if num:
                    coeff *= Fraction(int(num.group(1)), int(num.group(2) or 1))
                    continue
                var_m = re.fullmatch(r"([SRpq]\d+)(?:\^(\d+))?", piece)
                if not var_m:
                    raise ValueError(f"malformed term piece {piece!r}")
                mono.append((parse_var_name(var_m.group(1)), int(var_m.group(2) or 1)))
            pairs.append((normalize_mono(tuple(mono)), coeff))
        return cls._from_canonical(_collect(pairs))

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"mono": {var_name(v): e for v, e in mono}, "coeff": str(coeff)}
                for mono, coeff in self.items()
            ]
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RatPoly":
        pairs = []
        for entry in doc["terms"]:
            mono = normalize_mono({parse_var_name(n): e for n, e in entry["mono"].items()})
            coeff = entry["coeff"]
            if type(coeff) not in (str, int):
                raise TypeError(f"coefficient must be str or int, got {type(coeff).__name__}")
            pairs.append((mono, Fraction(coeff)))
        return cls._from_canonical(_collect(pairs))

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RatPoly":
        import json

        return cls.from_json_dict(json.loads(text))


def S(j: int) -> RatPoly:
    return RatPoly.variable(("S", j))


def R(j: int) -> RatPoly:
    return RatPoly.variable(("R", j))


def P(i: int) -> RatPoly:
    return RatPoly.variable(("p", i))


def Q(i: int) -> RatPoly:
    return RatPoly.variable(("q", i))
