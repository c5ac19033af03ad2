"""Exact integer and rational linear algebra.

Everything here works over Python ints and fractions.Fraction; no floating
point anywhere.  Matrices are lists (or tuples) of rows.  `exact_int` and
`exact_rational` are the one rule by which the package reads a number given
to it: ints and Fractions as they are, an integral float as its int, and
anything else (0.1, inf, NaN, a string) raises ValueError.
"""

from fractions import Fraction
from math import gcd, lcm


def exact_int(x):
    """x as an int; raises ValueError when x is not an integer (or is inf/NaN)."""
    try:
        i = int(x)
    except (OverflowError, TypeError, ValueError):  # inf, NaN, non-numbers
        i = None
    if i is None or i != x:
        raise ValueError(f"expected an integer, got {x!r}")
    return i


def exact_rational(x):
    """x as a Fraction: a Fraction as it is, an int or an integral float
    (1.0 is 1) as its Fraction; 0.1, inf and NaN raise ValueError."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x if isinstance(x, int) else exact_int(x))


def _power(x, n, one):
    """x ** n by square-and-multiply: `one` for n = 0, x.inverse() ** -n for
    n < 0; the first factor is taken as it is, so x ** 2 is one product x * x."""
    n = exact_int(n)
    if n < 0:
        x, n = x.inverse(), -n
    result = one
    while n:
        if n & 1:
            result = x if result is one else result * x
        n >>= 1
        if n:
            x = x * x
    return result


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u * m * v = d, u and v unimodular, and d diagonal
    with d[0][0] | d[1][1] | ... (diagonal entries nonnegative).
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def clear_at(t):
        """Clear row and column t beyond the pivot a[t][t] by Euclid steps."""
        while True:
            for i in range(t + 1, rows):
                while a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(t, i)
            for j in range(t + 1, cols):
                while a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
            if all(a[i][t] == 0 for i in range(t + 1, rows)) and \
               all(a[t][j] == 0 for j in range(t + 1, cols)):
                return

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        clear_at(t)
        t += 1

    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if a[i][i] != 0 and a[i + 1][i + 1] % a[i][i] != 0:
                add_row(i + 1, i, 1)
                clear_at(i)
                changed = True
    for i in range(n):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return a, u, v


def hermite_normal_form(m):
    """Row-style Hermite normal form of an integer matrix (zero rows dropped).

    Pivots are positive, entries above a pivot reduced into [0, pivot).
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return [row for row in a[:r] if any(row)]


def row_reduce(rows, ncols):
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Pivots are searched in the first ncols columns only, so augmented columns
    ride along.  Returns (a, pivots): a holds the rows as Fractions, row i <
    len(pivots) has a 1 in column pivots[i] and every other row a 0 there,
    and the rows from len(pivots) on are zero in the first ncols columns.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def solve_rational(m, b):
    """Solution of m x = b over the rationals, or None when inconsistent."""
    cols = len(m[0]) if m else 0
    a, pivots = row_reduce([list(row) + [bi] for row, bi in zip(m, b)], cols)
    if any(row[cols] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(a, pivots):
        x[c] = row[cols]
    return x


def invert_rational(m):
    """Inverse of a nonsingular square matrix, entries Fraction."""
    n = len(m)
    a, pivots = row_reduce([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(m)], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


def _symmetric_bareiss(gram):
    """Fraction-free elimination of a rational symmetric matrix.

    Bareiss's elimination (Math. Comp. 22 (1968)) of s * gram, s the least
    common denominator of the entries, with symmetric pivoting: a zero pivot
    is swapped with a nonzero diagonal entry, or else row and column j are
    added to the pivot's, which makes it 2 a[k][j].  Both steps are
    unimodular congruences, so the k-th pivot is the k-th leading principal
    minor of a matrix congruent to s * gram, and the last is det(s * gram).
    Returns (s, rows) with rows[k] = (a[k][k], ..., a[k][n-1]) the k-th pivot
    row; for a singular matrix the rows end early with a zero pivot row.
    """
    s = lcm(*(x.denominator for row in gram for x in row))
    a = [[(x * s).numerator for x in row] for row in gram]
    rows = []
    prev = 1
    while a:
        if a[0][0] == 0:
            j = next((j for j in range(1, len(a)) if a[j][j]), None)
            if j is not None:
                a[0], a[j] = a[j], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((j for j in range(1, len(a)) if a[0][j]), None)
                if j is None:
                    rows.append(a[0])
                    break
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
        head = a[0]
        p = head[0]
        rows.append(head)
        a = [[(x * p - row[0] * y) // prev for x, y in zip(row[1:], head[1:])]
             for row in a[1:]]
        prev = p
    return s, rows


def _inertia(rows):
    """(positive, negative) inertia from the pivot rows of `_symmetric_bareiss`.

    The k-th pivot over the (k-1)-th is the k-th diagonal entry of an LDL^T
    of a congruent matrix, so the negative count is the number of sign
    changes in 1, p_0, ..., p_{n-1} (Jacobi).
    """
    if rows and rows[-1][0] == 0:
        raise ValueError("singular gram matrix")
    neg = 0
    prev = 1
    for row in rows:
        neg += (row[0] > 0) != (prev > 0)
        prev = row[0]
    return len(rows) - neg, neg


def _det_and_signature(gram):
    """(det, (positive, negative)) of a nonsingular integer symmetric matrix.

    The determinant is the last pivot of `_symmetric_bareiss`, s being 1.
    Raises ValueError for a singular matrix.
    """
    rows = _symmetric_bareiss(gram)[1]
    return (rows[-1][0] if rows else 1), _inertia(rows)


def _definite_pivot_rows(gram):
    """(s, rows) of `_symmetric_bareiss` for a positive-definite matrix.

    Every leading minor of a positive-definite matrix is positive, so the
    elimination takes no pivot step and rows[k][0] is the (k+1)-th leading
    minor of s * gram; a pivot <= 0 raises ValueError.
    """
    s, rows = _symmetric_bareiss(gram)
    if any(row[0] <= 0 for row in rows):
        raise ValueError("matrix is not positive definite")
    return s, rows


def _ldl_fractions(s, minors, lam):
    """(d, l) of an LDL^T from the integers of s * gram: the leading minors
    D_0 = 1, D_1, ..., D_n and lam[k] = (D_{k+1} l[k][j] for j > k)."""
    d = []
    l = []
    for k, row in enumerate(lam):
        p = minors[k + 1]
        d.append(Fraction(p, minors[k] * s))
        l.append([Fraction(0)] * k + [Fraction(1)] + [Fraction(x, p) for x in row])
    return d, l


# Lovasz's constant of `lll_reduce_gram`
LLL_DELTA = Fraction(99, 100)


def lll_reduce_gram(gram):
    """Exact LLL on a positive-definite Gram matrix, in integers.

    Returns (t, d, l) with t unimodular and (d, l) the LDL^T of the reduced
    Gram t * gram * t^T: x^T (t gram t^T) x = sum_i d[i] * (x_i + sum_{j>i}
    l[i][j] x_j)^2; preconditions short-vector enumeration.  This is
    Cohen's integral LLL (GTM 138, Alg. 2.6.7) on s * gram, s the common
    denominator, which has the same transform: the leading minors D_i of
    the current Gram and lambda[k][j] = D_{j+1} mu[k][j] are integers, read
    from the pivot rows of `_symmetric_bareiss` (D_{k+1} = a[k][k],
    lambda[j][k] = a[k][j]) and kept current through size reduction and
    the swap, so no Fraction enters the loop.  Each coefficient is rounded
    half to even, as round() rounds a Fraction.

    The Lovasz test B_k >= (delta - mu[k][k-1]^2) B_{k-1} takes delta =
    `LLL_DELTA` = 99/100, not 3/4: the better-reduced basis gives smaller
    Fincke-Pohst scales, and on it the states of `_qf_value_counts` merge on
    every level.
    """
    s, rows = _definite_pivot_rows(gram)
    n = len(rows)
    minors = [1] + [row[0] for row in rows]
    lam = [[rows[j][k - j] for j in range(k)] for k in range(n)]
    t = identity(n)
    p, q = LLL_DELTA.numerator, LLL_DELTA.denominator
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            m = minors[j + 1]
            r, rem = divmod(lk[j], m)
            if 2 * rem > m or (2 * rem == m and r & 1):
                r += 1
            if r:
                t[k] = [x - r * y for x, y in zip(t[k], t[j])]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
                lk[j] -= r * m
        c = lk[k - 1]
        if q * (minors[k + 1] * minors[k - 1] + c * c) >= p * minors[k] * minors[k]:
            k += 1
            continue
        # swap b_{k-1} and b_k; D_k is the only minor that changes
        t[k - 1], t[k] = t[k], t[k - 1]
        lam[k - 1][:k - 1], lk[:k - 1] = lk[:k - 1], lam[k - 1][:k - 1]
        b = (minors[k - 1] * minors[k + 1] + c * c) // minors[k]
        for i in range(k + 1, n):
            li = lam[i]
            x = li[k]
            li[k] = (minors[k + 1] * li[k - 1] - c * x) // minors[k]
            li[k - 1] = (b * x + c * li[k]) // minors[k + 1]
        minors[k] = b
        k = max(k - 1, 1)
    return t, *_ldl_fractions(s, minors, [[lam[j][k] for j in range(k + 1, n)]
                                          for k in range(n)])


def rational_gcd(values):
    """gcd of a collection of rationals: the largest g with every value in g*Z."""
    g = Fraction(0)
    for v in values:
        f = abs(exact_rational(v))
        if f == 0:
            continue
        if g == 0:
            g = f
        else:
            g = Fraction(gcd(g.numerator * f.denominator, f.numerator * g.denominator),
                         g.denominator * f.denominator)
    return g
