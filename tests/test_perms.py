import functools
import itertools
from collections import Counter
from math import comb, factorial

import pytest

from symchar import functionals, kerov, perms, stanley, verify

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_compose_identity():
    p = (3, 1, 2)
    assert perms.compose(perms.identity(3), p) == p
    assert perms.compose(p, perms.identity(3)) == p


def test_compose_involution():
    t = (2, 1)
    assert perms.compose(t, t) == perms.identity(2)


def test_compose_convention_brute_force():
    # (a o b)(x) = a(b(x)), checked entry by entry over all of S(3) x S(3)
    for a in perms.all_perms(3):
        for b in perms.all_perms(3):
            c = perms.compose(a, b)
            for x in range(1, 4):
                assert c[x - 1] == a[b[x - 1] - 1]


def test_compose_adjacent_transpositions():
    # (1 2) o (2 3) maps 1 -> 2 -> 3 -> 1
    assert perms.compose((2, 1, 3), (1, 3, 2)) == perms.canonical_cycle(3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        perms.compose((1, 2), (1, 2, 3))


def test_cycles_identity():
    assert perms.cycles(perms.identity(3)) == ((1,), (2,), (3,))


def test_cycles_long_cycle():
    for k in range(1, 7):
        cyc = perms.cycles(perms.canonical_cycle(k))
        assert len(cyc) == 1
        assert len(cyc[0]) == k


def test_cycles_with_fixed_point():
    assert perms.cycles((2, 1, 3)) == ((1, 2), (3,))


def test_cycles_partition_support():
    for k in range(1, 6):
        for p in perms.all_perms(k):
            pieces = perms.cycles(p)
            union = sorted(x for c in pieces for x in c)
            assert union == list(range(1, k + 1))


def test_sign_matches_cycle_count():
    for p in perms.all_perms(4):
        assert perms.sign(p) == (-1) ** (4 - len(perms.cycles(p)))


def test_sign_multiplicative():
    for a in perms.all_perms(4):
        for b in perms.all_perms(4):
            assert perms.sign(perms.compose(a, b)) == perms.sign(a) * perms.sign(b)


def test_inverse():
    for p in perms.all_perms(4):
        assert perms.compose(p, perms.inverse(p)) == perms.identity(4)


@pytest.mark.parametrize("k", range(1, 7))
def test_factorization_count(k):
    assert sum(1 for _ in perms.factorizations_of_cycle(k)) == factorial(k)


def test_factorizations_compose_to_cycle():
    for k in range(1, 6):
        target = perms.canonical_cycle(k)
        for s1, s2 in perms.factorizations_of_cycle(k):
            assert perms.compose(s1, s2) == target


def test_factorizations_lex_order():
    first = [s1 for s1, _ in perms.factorizations_of_cycle(3)]
    assert first == sorted(first)
    assert first[0] == (1, 2, 3)


@pytest.mark.parametrize("k", range(1, 7))
def test_minimal_factorizations_catalan(k):
    minimal = sum(
        1 for s1, s2 in perms.factorizations_of_cycle(k)
        if perms.cycle_count(s1) + perms.cycle_count(s2) == k + 1)
    assert minimal == CATALAN[k]
    assert CATALAN[k] == comb(2 * k, k) // (k + 1)


def test_cycles_intersect():
    assert perms.cycles_intersect((1, 2), (2, 3))
    assert not perms.cycles_intersect((1,), (2, 3))
    assert perms.cycles_intersect((1, 2), (1, 2))


def _patterns_by_brute_force(pi):
    tally = Counter()
    for s2 in perms.all_perms(len(pi)):
        s1 = perms.compose(pi, perms.inverse(s2))
        assert perms.compose(s1, s2) == pi
        c2 = perms.cycles(s2)
        masks = sorted(sum(1 << j for j, c in enumerate(c2) if perms.cycles_intersect(cyc, c))
                       for cyc in perms.cycles(s1))
        tally[len(c2), tuple(masks)] += 1
    return tally


def _canonical(tally):
    """The tally with each pattern replaced by its least renumbering of the
    s2-cycles: min over bijections of bit j to bit sigma[j] of the sorted masks."""
    out = Counter()
    for (m2, masks), n in tally.items():
        relabeled = min(
            tuple(sorted(sum(1 << sigma[j] for j in range(m2) if mask >> j & 1) for mask in masks))
            for sigma in itertools.permutations(range(m2)))
        out[m2, relabeled] += n
    return out


@pytest.mark.parametrize("pi", [perms.canonical_cycle(k) for k in range(1, 8)]
                         + [(3, 5, 4, 2, 1), (2, 3, 1, 5, 4)])
def test_factorization_patterns_match_brute_force(pi):
    got = perms.factorization_patterns(pi)
    assert _canonical(got) == _canonical(_patterns_by_brute_force(pi))


@pytest.mark.parametrize("k", range(1, 10))
def test_factorization_patterns_total(k):
    assert sum(perms.factorization_patterns(perms.canonical_cycle(k)).values()) == factorial(k)


@pytest.mark.parametrize("k", range(1, 8))
def test_rotation_orbits_one_per_orbit(k):
    cyc = [*range(1, k), 0]
    inv = [k - 1, *range(k - 1)]
    orbit_of = {}
    for t in itertools.permutations(range(k)):
        if t not in orbit_of:
            orbit, u = set(), t
            while u not in orbit:
                orbit.add(u)
                u = tuple(cyc[u[inv[x]]] for x in range(k))
            for u in orbit:
                orbit_of[u] = frozenset(orbit)
    reps = list(perms.rotation_orbits(k))
    assert len({orbit_of[t] for t, _ in reps}) == len(reps) == len(set(orbit_of.values()))
    assert all(size == len(orbit_of[t]) for t, size in reps)


def _orbit_tally_reference(k):
    """The raw tally of a k-cycle by a second implementation of the pass: a
    generator walk over the necklaces, one frame per position, and a leaf
    that builds s1 and the labels afresh for each visit."""
    t, d, free = [0] * k, [0] * k, [True] * k

    def walk(n, p):
        if n == k:
            if k % p == 0:
                yield tuple(t), p
            return
        low = d[n - p] if n else 0
        for dn in range(low, k):
            x = (n + dn) % k
            if free[x]:
                free[x] = False
                t[n], d[n] = x, dn
                yield from walk(n + 1, p if n and dn == low else n + 1)
                free[x] = True

    target = [*range(1, k), 0]
    tally = Counter()
    for rep, weight in walk(0, 1):
        s1 = [target[v] for v in rep]
        bit = [0] * k
        m2 = 0
        for start in range(k):
            if not bit[start]:
                b = 1 << m2
                m2 += 1
                x = start
                while not bit[x]:
                    bit[x] = b
                    x = rep[x]
        masks = []
        for start in range(k):
            if bit[start]:
                mask, x = 0, start
                while bit[x]:
                    mask |= bit[x]
                    bit[x] = 0
                    x = s1[x]
                masks.append(mask)
        tally[m2, tuple(sorted(masks))] += weight
    return tally


@pytest.mark.parametrize("pi", [perms.canonical_cycle(k) for k in range(1, 10)]
                         + [(3, 5, 6, 2, 1, 4)])
def test_factorization_patterns_raw_tally(pi):
    # keys and weights as they are, not only up to renumbering the s2-cycles;
    # any k-cycle is tallied as the canonical one
    assert perms.cycle_count(pi) == 1
    assert perms.factorization_patterns(pi) == _orbit_tally_reference(len(pi))


def test_factorization_patterns_rejects_non_permutation():
    with pytest.raises(ValueError):
        perms.factorization_patterns((1, 1, 3))


_brute_tally = functools.cache(_patterns_by_brute_force)


def _clear_result_caches():
    kerov.kerov_polynomial_by_counting.cache_clear()
    stanley.j_polynomial_by_counting.cache_clear()
    functionals.free_cumulant_multirect_symbolic.cache_clear()


@pytest.mark.parametrize("fold", [
    lambda k: kerov.kerov_polynomial_by_counting(k),
    lambda k: stanley.j_polynomial_by_counting(k),
    lambda k: [stanley.stanley_character_poly(perms.canonical_cycle(k), r) for r in (1, 2, 3)],
    lambda k: [functionals.free_cumulant_multirect_symbolic(r, k + 1) for r in (1, 2, 3)],
    lambda k: [kerov.kerov_quadratic_derivative(k, j1, j2)
               for j1 in range(2, k + 1) for j2 in range(j1, k + 2)],
    lambda k: verify.check_catalan_minimal_factorizations(k),
], ids=["K", "J", "stanley", "multirect-R", "quadratic", "catalan"])
def test_consumers_ignore_s2_cycle_numbering(fold, monkeypatch):
    # Each fold gives the same value over the orbit tally as over the
    # brute-force tally with the numbering of cycles(s2).
    for k in range(1, 8):
        _clear_result_caches()
        orbit_value = fold(k)
        _clear_result_caches()
        with monkeypatch.context() as patch:
            patch.setattr(perms, "factorization_patterns", _brute_tally)
            assert fold(k) == orbit_value
    _clear_result_caches()
