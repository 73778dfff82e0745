import functools
import itertools
from collections import Counter
from math import comb, factorial

import pytest

from symchar import charoracle, diagrams, functionals, kerov, perms, stanley, verify

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
        if len(perms.cycles(s1)) + len(perms.cycles(s2)) == k + 1)
    assert minimal == CATALAN[k]
    assert CATALAN[k] == comb(2 * k, k) // (k + 1)


def _cycles_intersect(c1, c2):
    return not set(c1).isdisjoint(c2)


def _patterns_by_brute_force(pi):
    tally = Counter()
    for s2 in perms.all_perms(len(pi)):
        s1 = perms.compose(pi, perms.inverse(s2))
        assert perms.compose(s1, s2) == pi
        c2 = perms.cycles(s2)
        masks = sorted(sum(1 << j for j, c in enumerate(c2) if _cycles_intersect(cyc, c))
                       for cyc in perms.cycles(s1))
        tally[len(c2), tuple(masks)] += 1
    return tally


def _distinct_orders(items):
    """Every ordering of items, once each however many items are equal."""
    if not items:
        yield ()
    for item in set(items):
        rest = list(items)
        rest.remove(item)
        for tail in _distinct_orders(rest):
            yield (item, *tail)


def _canonical(tally):
    """The tally with each pattern replaced by its least renumbering of the
    s2-cycles among those that list them by a signature: for each s1-cycle
    that meets the s2-cycle, the number of s2-cycles it meets, sorted.  A
    signature does not depend on the numbering, so that least renumbering is
    an exact canonical form; only orders within runs of equal signature are
    tried, and of two s2-cycles met by the same s1-cycles, which are
    interchangeable, only one order."""
    out = Counter()
    for (m2, masks), n in tally.items():
        sizes = [bin(mask).count("1") for mask in masks]
        columns = sorted((sorted(size for size, mask in zip(sizes, masks) if mask >> j & 1),
                          tuple(mask >> j & 1 for mask in masks)) for j in range(m2))
        runs = [[column for _, column in run]
                for _, run in itertools.groupby(columns, key=lambda sig_column: sig_column[0])]
        relabeled = min(
            tuple(sorted(sum(column[i] << j for j, column in enumerate(itertools.chain(*order)))
                         for i in range(len(masks))))
            for order in itertools.product(*map(_distinct_orders, runs)))
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
    # Brute force over S(k): each element of a visited chain, weighted p,
    # stands for p elements of its orbit under conjugation by the cycle, so
    # every such orbit gets a total weight equal to its size; and the chains
    # visit each orbit under t -> c^i o t o c^j once, with p * k elements.
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
    chains = []

    def visit(t, e, p):
        assert t[0] == 0
        assert e[:k] == [(t[(x + 1) % k] - t[x] - 1) % k for x in range(k)]
        chains.append(([tuple((v + s) % k for v in t) for s in range(k)], p))

    perms._walk_chains(k, visit)
    weight = Counter()
    for chain, p in chains:
        assert len(set(chain)) == k
        for u in chain:
            weight[orbit_of[u]] += p
    assert all(weight[orbit] == len(orbit) for orbit in set(orbit_of.values()))
    assert sum(weight.values()) == factorial(k)
    shift_orbits = [frozenset().union(*(orbit_of[u] for u in chain)) for chain, _ in chains]
    assert len(set(shift_orbits)) == len(chains)
    assert all(len(orbit) == p * k for orbit, (_, p) in zip(shift_orbits, chains))
    assert sum(map(len, shift_orbits)) == factorial(k)


def _orbit_tally_reference(k):
    """The tally of a k-cycle by the rotation-orbit pass: a generator walk
    over the necklaces of d(x) = t(x) - x mod k, one frame per position, and
    a leaf that builds s1 and the labels afresh for each visit."""
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


def _chain_tally_reference(k):
    """The raw tally of a k-cycle by a second implementation of the chain
    pass: a generator walk over the necklaces of the step sequence
    e(x) = t(x+1) - t(x) - 1 mod k from t(0) = 0, one frame per position and
    e(k-1) closing t back to 0, and a leaf that builds each chain element
    u = c^s o t and its s1 = c o u afresh and numbers the cycles of u as
    perms.cycles does."""
    t, e, free = [0] * (k + 1), [0] * k, [True] * k

    def walk(n, p):
        # places t[n+1]; the point 0 is free until t[k] = t[0] takes it
        if n == k:
            if k % p == 0:
                yield tuple(t[:k]), p
            return
        low = e[n - p] if n else 0
        for en in range(low, k):
            x = (t[n] + en + 1) % k
            if free[x] and (x == 0) == (n == k - 1):
                free[x] = False
                t[n + 1], e[n] = x, en
                yield from walk(n + 1, p if n and en == low else n + 1)
                free[x] = True

    tally = Counter()
    for rep, weight in walk(0, 1):
        for s in range(k):
            u = tuple((v + s) % k + 1 for v in rep)
            s1 = tuple(v % k + 1 for v in u)
            s2_cycles = perms.cycles(u)
            masks = sorted(sum(1 << j for j, c in enumerate(s2_cycles) if set(c) & set(cyc))
                           for cyc in perms.cycles(s1))
            tally[len(s2_cycles), tuple(masks)] += weight
    return tally


@pytest.mark.parametrize("pi", [perms.canonical_cycle(k) for k in range(1, 10)]
                         + [(3, 5, 6, 2, 1, 4)])
def test_factorization_patterns_raw_tally(pi):
    # below the class walk's cutoff keys and weights as they are, not only up
    # to renumbering the s2-cycles, from it on class by class; any k-cycle is
    # tallied as the canonical one
    assert len(perms.cycles(pi)) == 1
    got, want = perms.factorization_patterns(pi), _chain_tally_reference(len(pi))
    if len(pi) >= perms._CLASS_WALK_MIN_K:
        got, want = _canonical(got), _canonical(want)
    assert got == want


@pytest.mark.parametrize("k", range(1, 9))
def test_class_walk_one_per_class(k):
    # Brute force over S(k), with w(x) = -x mod k: a factorization s1 o s2 = c
    # gives (w s2^-1 w) o (w s1^-1 w) = c, of the transposed pattern, and
    # (w s1^-1 w) o (w s1 s2^-1 s1^-1 w) = c, of the same pattern.  Read on
    # t = s2^-1, they map orbits under t -> c^i o t o c^j to orbits (rho and
    # phi).  Each visit must open a new class {O, rho O, phi O, rho phi O},
    # weight its chain by |O u phi O| / k and transpose iff rho O is neither;
    # the classes must cover S(k).
    def mul(a, b):
        return tuple(a[v] for v in b)

    def inv(a):
        out = [0] * k
        for x, v in enumerate(a):
            out[v] = x
        return tuple(out)

    c, w = tuple((x + 1) % k for x in range(k)), tuple(-x % k for x in range(k))
    orbit_of = {}
    for t in itertools.permutations(range(k)):
        if t not in orbit_of:
            orbit = frozenset(tuple((t[(x + j) % k] + i) % k for x in range(k))
                              for i in range(k) for j in range(k))
            orbit_of.update(dict.fromkeys(orbit, orbit))

    def images(orbit):
        t = next(iter(orbit))
        s1, s2 = mul(c, t), inv(t)
        pairs = [(mul(w, mul(inv(s2), w)), mul(w, mul(inv(s1), w))),
                 (mul(w, mul(inv(s1), w)), mul(w, mul(s1, mul(inv(s2), mul(inv(s1), w)))))]
        assert all(mul(a, b) == c for a, b in pairs)
        return [orbit_of[inv(b)] for _, b in pairs]

    covered, elements = set(), 0

    def visit(t, weight, transposed):
        nonlocal elements
        orbit = orbit_of[tuple(t)]
        rho, phi = images(orbit)
        cls = {orbit, rho, phi, images(phi)[0]}
        assert covered.isdisjoint(cls)
        covered.update(cls)
        assert weight * k == len(orbit | phi)
        assert transposed == (rho not in (orbit, phi))
        elements += weight * k * (1 + transposed)

    perms._walk_classes(k, visit)
    assert covered == set(orbit_of.values())
    assert elements == factorial(k)


@pytest.mark.parametrize("k", range(1, perms._CLASS_WALK_MIN_K))
def test_class_walk_below_cutoff(k, monkeypatch):
    # the class walk, run where the plain chain walk is the faster, tallies
    # the same patterns up to renumbering
    plain = perms.factorization_patterns(perms.canonical_cycle(k))
    monkeypatch.setattr(perms, "_CLASS_WALK_MIN_K", 1)
    assert _canonical(perms.factorization_patterns(perms.canonical_cycle(k))) == _canonical(plain)


@pytest.mark.parametrize("k", range(1, 9))
def test_chain_tally_matches_orbit_tally(k):
    # the chain pass and the rotation-orbit pass it replaced agree up to
    # renumbering the s2-cycles
    assert _canonical(perms.factorization_patterns(perms.canonical_cycle(k))) == \
        _canonical(_orbit_tally_reference(k))


def _cycle_count_poly(pi):
    """P_pi(x, y) = sum over s1 o s2 = pi of x^|C(s1)| y^|C(s2)|, as a
    function, read off the pattern tally."""
    counts = Counter()
    for (m2, masks), n in perms.factorization_patterns(pi).items():
        counts[len(masks), m2] += n
    return lambda x, y: sum(n * x ** a * y ** b for (a, b), n in counts.items())


def _differences(values):
    """Delta^i f(0) for i = 0.. from f(0), f(1), ..."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def check_jackson_form(k):
    """The pass for the k-cycle adds up to k!, and in the basis
    C(x, i) C(y, j) the coefficients of P_(1..k)(x, y) are
    k! (k-1)! / ((i-1)! (j-1)! (k+1-i-j)!) (Jackson, Proc. AMS 1988), read
    off by finite differences of P at 0 <= x, y <= k + 1."""
    poly = _cycle_count_poly(perms.canonical_cycle(k))
    grid = range(k + 2)
    assert poly(1, 1) == factorial(k)
    by_y = [_differences([poly(x, y) for x in grid]) for y in grid]
    for i in grid:
        for j, coeff in enumerate(_differences([by_y[y][i] for y in grid])):
            want = (factorial(k) * factorial(k - 1)
                    // (factorial(i - 1) * factorial(j - 1) * factorial(k + 1 - i - j))
                    if i and j and i + j <= k + 1 else 0)
            assert coeff == want, (k, i, j)


@pytest.mark.parametrize("k", range(1, 10))
def test_jackson_form(k):
    check_jackson_form(k)


def _perm_of_type(cycle_type):
    images, start = [], 1
    for length in cycle_type:
        images += [*range(start + 1, start + length), start]
        start += length
    return tuple(images)


@pytest.mark.parametrize("cycle_type", [mu for k in range(1, 7) for mu in diagrams.partitions(k)],
                         ids=str)
def test_jucys_murphy_form(cycle_type):
    # P_pi(x, y) = (1/k!) sum_lambda dim(lambda) chi^lambda(pi)
    # prod_boxes (x + c)(y + c), c the content of the box: sum_s x^|C(s)| s
    # is prod_i (x + J_i) in the Jucys-Murphy elements, which acts on the
    # lambda-module as the content product.  Both sides have degree <= k in
    # x and in y, so the (k + 1)^2 points of the grid fix them.
    k = sum(cycle_type)
    poly = _cycle_count_poly(_perm_of_type(cycle_type))
    weights = [(charoracle.dimension(lam) * charoracle.mn_character(lam, cycle_type),
                [col - row for row, length in enumerate(lam) for col in range(length)])
               for lam in diagrams.partitions(k)]
    for x in range(k + 1):
        for y in range(k + 1):
            total = 0
            for weight, contents in weights:
                for c in contents:
                    weight *= (x + c) * (y + c)
                total += weight
            assert poly(x, y) * factorial(k) == total, (x, y)


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
