import random
from fractions import Fraction
from math import prod

import pytest

from borcherds_kit.io import load_lattice
from borcherds_kit.lattice import GramLattice, direct_sum
from borcherds_kit.linalg import (
    _det_and_signature,
    _inertia,
    _symmetric_bareiss,
    exact_int,
    exact_rational,
    hermite_normal_form,
    identity,
    invert_rational,
    lll_reduce_gram,
    mat_mul,
    rational_gcd,
    row_reduce,
    smith_normal_form,
    solve_rational,
    transpose,
)


def random_int_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def is_unimodular(m):
    """True when the inverse of the square integer matrix m is integral."""
    return all(x.denominator == 1 for row in invert_rational(m) for x in row)


def smith_diagonal(m):
    d = smith_normal_form(m)[0]
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def is_singular(m):
    return len(row_reduce(m, len(m))[1]) < len(m)


def test_smith_normal_form_properties():
    rng = random.Random(2)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_int_matrix(rng, rows, cols)
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert is_unimodular(u) and is_unimodular(v)
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
        assert all(x >= 0 for x in diag)


def test_smith_normal_form_known():
    d, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    d, _, _ = smith_normal_form([[2, -1], [-1, 2]])
    assert [d[0][0], d[1][1]] == [1, 3]


def test_smith_normal_form_stress():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(4, 5)
        m = random_int_matrix(rng, n, n, bound=30)
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert is_unimodular(u) and is_unimodular(v)
        diag = [d[i][i] for i in range(n)]
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0


def test_hermite_normal_form_span():
    # HNF rows span the same lattice: each row of m is an integral
    # combination of them, the one rational solution as they are independent
    rng = random.Random(3)
    for _ in range(20):
        m = random_int_matrix(rng, 3, 3)
        if is_singular(m):
            continue
        h = hermite_normal_form(m)
        # |det| is the product of the Smith diagonal
        assert prod(smith_diagonal(h)) == prod(smith_diagonal(m))
        for row in m:
            assert all(c.denominator == 1 for c in solve_rational(transpose(h), row))


def test_solve_rational_and_inverse():
    m = [[2, 1], [1, 1]]
    x = solve_rational(m, [3, 2])
    assert x == [Fraction(1), Fraction(1)]
    inv = invert_rational(m)
    assert mat_mul(m, inv) == [[1, 0], [0, 1]]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


def reference_solve_rational(m, b):
    """The former stand-alone elimination behind solve_rational."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(bi)] for row, bi in zip(m, b)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x


def reference_invert_rational(m):
    """The former stand-alone elimination behind invert_rational."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def random_rational_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)]


def test_row_reduce_matches_reference_eliminations():
    rng = random.Random(23)
    seen = {"square": 0, "rectangular": 0, "singular": 0, "inconsistent": 0}
    for trial in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_rational_matrix(rng, rows, cols)
        if trial % 3 == 0 and rows > 1:
            # a dependent row: the last row repeats a combination of two others
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            m[-1] = [x + f * y for x, y in zip(m[0], m[rows // 2])]
        if trial % 5 == 0:
            m[rng.randrange(rows)] = [Fraction(0)] * cols
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows)]
        x = solve_rational(m, b)
        assert x == reference_solve_rational(m, b)
        seen["inconsistent"] += x is None
        if x is not None:
            assert [sum(a * c for a, c in zip(r, x)) for r in m] == b
        if rows != cols:
            seen["rectangular"] += 1
            continue
        seen["square"] += 1
        try:
            expected = reference_invert_rational(m)
        except ZeroDivisionError:
            seen["singular"] += 1
            with pytest.raises(ZeroDivisionError):
                invert_rational(m)
        else:
            assert invert_rational(m) == expected
    assert all(count >= 10 for count in seen.values()), seen


def test_signature():
    assert _det_and_signature([]) == (1, (0, 0))
    assert _det_and_signature([[2]]) == (2, (1, 0))
    assert _det_and_signature([[-2]]) == (-2, (0, 1))
    assert _det_and_signature([[0, 1], [1, 0]]) == (-1, (1, 1))
    assert _det_and_signature([[2, -1], [-1, 2]]) == (3, (2, 0))
    u_plus_u = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    assert _det_and_signature(u_plus_u) == (1, (2, 2))


def test_ldl_reconstructs_form():
    # the (d, l) of `lll_reduce_gram` is the LDL^T of the reduced Gram
    rng = random.Random(5)
    for _ in range(20):
        b = random_int_matrix(rng, 3, 3, bound=3)
        if is_singular(b):
            continue
        gram = mat_mul(b, transpose(b))
        t, d, l = lll_reduce_gram(gram)
        reduced = mat_mul(mat_mul(t, gram), transpose(t))
        for _ in range(5):
            x = [rng.randint(-4, 4) for _ in range(3)]
            direct = sum(x[i] * reduced[i][j] * x[j] for i in range(3) for j in range(3))
            via = sum(d[i] * (x[i] + sum(l[i][j] * x[j] for j in range(i + 1, 3))) ** 2
                      for i in range(3))
            assert via == direct


def test_ldl_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive definite"):
        lll_reduce_gram([[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# differential check of the one fraction-free elimination against the two
# Fraction eliminations it replaced, and of the determinant against the
# Smith diagonal
# ---------------------------------------------------------------------------

def former_signature(gram):
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if j is None:
                    raise ValueError("singular gram matrix")
                for t in range(n):
                    a[k][t] += a[j][t]
                for t in range(n):
                    a[t][k] += a[t][j]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        rows_below = range(k + 1, n)
        factors = [a[i][k] / p for i in rows_below]
        for i, f in zip(rows_below, factors):
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
        for i in rows_below:
            a[i][k] = Fraction(0)
            a[k][i] = Fraction(0)
    return pos, neg


def former_ldl_decomposition(gram):
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        l[i][i] = Fraction(1)
    for k in range(n):
        if a[k][k] <= 0:
            raise ValueError("matrix is not positive definite")
        d[k] = a[k][k]
        for j in range(k + 1, n):
            l[k][j] = a[k][j] / a[k][k]
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] -= a[k][i] * a[k][j] / a[k][k]
                a[j][i] = a[i][j]
    return d, l


def _outcome(fn, m):
    try:
        return fn(m)
    except ValueError as exc:
        return str(exc)


def rational_signature(m):
    return _inertia(_symmetric_bareiss(m)[1])


def check_elimination_against_former(m):
    """The inertia and the LDL^T that `lll_reduce_gram` returns agree with
    the former code, errors included; the determinant of an integer matrix
    has the Smith diagonal's absolute value and the inertia's sign."""
    sig = _outcome(rational_signature, m)
    assert sig == _outcome(former_signature, m), m
    lll = _outcome(lll_reduce_gram, m)
    if isinstance(lll, str):
        assert lll == _outcome(former_ldl_decomposition, m), m
    else:
        t, d, l = lll
        assert (d, l) == former_ldl_decomposition(mat_mul(mat_mul(t, m), transpose(t))), m
    if all(type(x) is int for row in m for x in row):
        even = [[2 * x for x in row] for row in m]
        if is_singular(even):
            with pytest.raises(ValueError, match="nonsingular"):
                GramLattice(even)
        else:
            lat = GramLattice(even)
            assert lat.signature_pair == sig
            assert lat.det == (-1) ** sig[1] * prod(smith_diagonal(even))
    return sig


def random_symmetric(rng, n, kind):
    if kind == "gram":  # b b^T: positive semidefinite, singular with b
        b = random_int_matrix(rng, n, n, bound=3)
        return mat_mul(b, transpose(b))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "sparse":  # many zero diagonals: the pivot steps
                x = rng.choice([0, 0, 2, -2]) if i == j else rng.choice([0, 0, 0, 1, -1, 3])
            else:
                x = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
            m[i][j] = m[j][i] = x
    return m


def test_elimination_matches_former_on_random_matrices():
    rng = random.Random(1968)
    seen = {"definite": 0, "indefinite": 0, "singular": 0}
    for case in range(1500):
        kind = ("gram", "sparse", "rational")[case % 3]
        sig = check_elimination_against_former(random_symmetric(rng, 1 + case % 7, kind))
        if isinstance(sig, str):
            seen["singular"] += 1
        else:
            seen["definite" if sig[1] == 0 else "indefinite"] += 1
    assert all(count >= 100 for count in seen.values()), seen


def test_elimination_matches_former_on_bundled_lattices():
    rng = random.Random(22)
    uu = load_lattice("u-plus-u").gram
    e8 = load_lattice("e8").gram
    uue8 = [list(r) + [0] * 8 for r in uu] + [[0] * 4 + list(r) for r in e8]
    assert check_elimination_against_former(uu) == (2, 2)
    for _ in range(10):
        perm = rng.sample(range(12), 12)
        permuted = [[uue8[i][j] for j in perm] for i in perm]
        assert check_elimination_against_former(permuted) == (10, 2)
    for name in ("niemeier-a1", "niemeier-a2"):
        gram = load_lattice(name).gram
        assert check_elimination_against_former(gram) == (24, 0)
        assert _det_and_signature(gram) == (1, (24, 0))


def test_elimination_matches_former_on_cone_majorants():
    # 2Q(x) + [x, w]^2 / |Q(w)| on V0 = E8 + U, the rational majorant that
    # `product._cone_points` reduces, for random rational w with Q(w) < 0
    v0 = direct_sum([load_lattice("e8"), load_lattice("u")])
    rng = random.Random(23)
    trials = 0
    while trials < 20:
        w = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(10)]
        qw = v0.q(w)
        if qw >= 0:
            continue
        gw = v0.image(w)
        a = [[v0.gram[i][j] + gw[i] * gw[j] / -qw for j in range(10)] for i in range(10)]
        assert check_elimination_against_former(a) == (10, 0)
        trials += 1


def test_elimination_rejects_singular_matrices():
    # zero diagonals everywhere in the last three, so they take pivot steps
    for m in ([[0]], [[1, 1], [1, 1]], [[0, 0], [0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
              [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]):
        assert check_elimination_against_former(m) == "singular gram matrix"
        with pytest.raises(ValueError, match="not positive definite"):
            lll_reduce_gram(m)


def test_lll_preserves_lattice():
    rng = random.Random(6)
    for _ in range(15):
        b = random_int_matrix(rng, 4, 4, bound=8)
        if is_singular(b):
            continue
        gram = mat_mul(b, transpose(b))
        t, d, l = lll_reduce_gram(gram)
        g2 = ldl_product(d, l)
        assert is_unimodular(t)
        assert mat_mul(mat_mul(t, gram), transpose(t)) == g2
        # reduced basis should not be longer than the original on average:
        # at least check the first vector shrank or stayed comparable
        assert g2[0][0] <= max(gram[i][i] for i in range(4))


def ldl_product(d, l):
    """The matrix l^T diag(d) l whose LDL^T is (d, l)."""
    n = len(d)
    return [[sum(l[k][i] * d[k] * l[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def former_lll_reduce_gram(gram, delta=Fraction(3, 4)):
    """The former LLL: Gram bookkeeping, Gram-Schmidt recomputed per swap.

    Returns (gram', t) with gram' = t * gram * t^T; the reference of
    `test_lll_matches_former`.
    """
    n = len(gram)
    if n <= 1:
        return [list(r) for r in gram], identity(n)
    g = [[Fraction(x) for x in row] for row in gram]
    t = identity(n)

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            bi = Fraction(g[i][i])
            for j in range(i):
                m = Fraction(g[i][j])
                for k2 in range(j):
                    m -= mu[j][k2] * mu[i][k2] * bstar[k2]
                mu[i][j] = m / bstar[j]
                bi -= mu[i][j] ** 2 * bstar[j]
            bstar[i] = bi
        return mu, bstar

    def row_op(i, j, r):
        new_ii = g[i][i] - 2 * r * g[i][j] + r * r * g[j][j]
        g[i] = [x - r * y for x, y in zip(g[i], g[j])]
        for k2 in range(n):
            if k2 != i:
                g[k2][i] = g[i][k2]
        g[i][i] = new_ii
        t[i] = [x - r * y for x, y in zip(t[i], t[j])]

    def swap(i, j):
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]
        t[i], t[j] = t[j], t[i]

    mu, bstar = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                row_op(k, j, r)
                for jj in range(j):
                    mu[k][jj] -= r * mu[j][jj]
                mu[k][j] -= r
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            swap(k - 1, k)
            mu, bstar = gso()
            k = max(k - 1, 1)
    return g, t


def random_rational_gram(rng, n):
    """b b^T + s I for a random rational b and s in {0, 1/3, 1}: positive
    definite, often far from reduced."""
    while True:
        b = [[Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(n)]
             for _ in range(n)]
        s = rng.choice([0, Fraction(1, 3), 1])
        gram = [[sum(b[i][k] * b[j][k] for k in range(n)) + s * int(i == j)
                 for j in range(n)] for i in range(n)]
        if s or len(row_reduce(b, n)[1]) == n:
            return gram


def assert_lll_reduced(gram, t, d, l):
    """t is unimodular and (d, l) the LDL^T of t gram t^T, size-reduced
    (|mu| <= 1/2) and Lovasz-reduced at delta = 99/100."""
    n = len(gram)
    assert is_unimodular(t)
    assert (d, l) == former_ldl_decomposition(mat_mul(mat_mul(t, gram), transpose(t)))
    for i in range(n):
        assert all(abs(l[j][i]) <= Fraction(1, 2) for j in range(i))
    for k in range(1, n):
        assert d[k] >= (Fraction(99, 100) - l[k - 1][k] ** 2) * d[k - 1]


def check_lll_against_former(gram):
    t, d, l = lll_reduce_gram(gram)
    g_ref, t_ref = former_lll_reduce_gram(gram, Fraction(99, 100))
    assert t == t_ref
    assert mat_mul(mat_mul(t, gram), transpose(t)) == g_ref
    assert_lll_reduced(gram, t, d, l)


def test_lll_matches_former():
    # the integral LLL gives the former transform at the same delta exactly
    rng = random.Random(2024)
    for case in range(300):
        check_lll_against_former(random_rational_gram(rng, 1 + case % 7))


def test_lll_matches_former_on_niemeier_a1():
    # and on niemeier-a2
    for name in ("niemeier-a1", "niemeier-a2"):
        gram = [list(r) for r in load_lattice(name).gram]
        check_lll_against_former(gram)
        t, d, l = lll_reduce_gram(gram)
        assert t != identity(24)


def test_lll_output_is_reduced():
    # rational grams of rank 1 to 8, by another seed than the former
    # comparison
    rng = random.Random(99)
    for case in range(300):
        gram = random_rational_gram(rng, 1 + case % 8)
        assert_lll_reduced(gram, *lll_reduce_gram(gram))


def test_rational_gcd():
    assert rational_gcd([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)
    assert rational_gcd([2, 3]) == 1
    assert rational_gcd([Fraction(4, 3), Fraction(2, 3)]) == Fraction(2, 3)
    assert rational_gcd([0, Fraction(5, 7)]) == Fraction(5, 7)
    assert rational_gcd([]) == 0


def test_exact_number_rule():
    for x in (3, -3, 3.0, True):
        assert exact_int(x) == int(x) and type(exact_int(x)) is int
    half = Fraction(1, 2)
    assert exact_rational(half) is half
    for x, want in ((3, 3), (-2.0, -2), (Fraction(6, 4), Fraction(3, 2))):
        got = exact_rational(x)
        assert got == want and type(got) is Fraction
    for bad in (0.1, 0.5, float("inf"), float("-inf"), float("nan"), "1", None, 1j, [1]):
        with pytest.raises(ValueError, match="expected an integer"):
            exact_rational(bad)
        with pytest.raises(ValueError, match="expected an integer"):
            exact_int(bad)
    with pytest.raises(ValueError, match="expected an integer"):
        exact_int(half)
