"""Exact matrix arithmetic over the rationals, integer first.

Matrices are tuples of tuples of exact entries: a plain ``int`` wherever the
value is integral, and a ``fractions.Fraction`` only where a denominator
actually appears.  ``to_exact``, ``identity``, ``zeros``, ``det``, ``inverse``
and ``from_json_entries`` return entries in that normal form; the ring
operations keep ints as ints, and ``to_exact`` turns a Fraction that has
become integral back into an int.  ``det`` and ``inverse`` eliminate
fraction-free in the sense of Bareiss (Math. Comp. 22, 1968), so integer input
never leaves the integers; ``symmetric_pivots`` does the same for a symmetric
integer matrix without row swaps, which decides PSD and definiteness and gives
the Fincke-Pohst coefficients.  Everything here is small and dense.
"""

from fractions import Fraction
from math import lcm, prod


def entry(x):
    """One exact entry: an int when x is integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f.numerator) if f.denominator == 1 else f


def quotient(a, b):
    """The exact quotient a / b, as an int when b divides a."""
    return entry(Fraction(a, b))


def to_exact(rows):
    """Normalize a nested sequence into an immutable matrix of exact entries."""
    return tuple(tuple(entry(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(n, m=None):
    m = n if m is None else m
    return tuple((0,) * m for _ in range(n))


def shape(a):
    return len(a), len(a[0]) if len(a) else 0


def transpose(a):
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def scalar_mul(c, a):
    c = entry(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_eq(a, b):
    return shape(a) == shape(b) and all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_symmetric(a):
    n, m = shape(a)
    return n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def is_integral(a):
    return all(Fraction(x).denominator == 1 for row in a for x in row)


def _integer_rows(a):
    """Rows of a scaled to integers: (rows, scales) with rows[i] = scales[i] * a[i]."""
    if all(type(x) is int for row in a for x in row):
        return [list(row) for row in a], [1] * len(a)
    rows, scales = [], []
    for row in a:
        row = [entry(x) for x in row]
        s = lcm(*(x.denominator for x in row))
        rows.append([x if s == 1 else int(x * s) for x in row])
        scales.append(s)
    return rows, scales


def _eliminate(rows, n, full):
    """Fraction-free elimination on the first n columns, in place.

    Each step replaces a row r by (p * r - f * pivot_row) / previous pivot,
    a division that is exact by Sylvester's identity.  Returns the sign of
    the row swaps and the last pivot (the determinant up to that sign), or
    None when a column has no pivot.  With full=True the rows above the
    pivot are cleared too (Gauss-Jordan), leaving the last pivot on the
    whole diagonal.
    """
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot is None:
            return sign, None
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        p, top = rows[k][k], rows[k]
        for r in range(n) if full else range(k + 1, n):
            if r != k:
                f = rows[r][k]
                rows[r] = [(p * x - f * y) // prev for x, y in zip(rows[r], top)]
        prev = p
    return sign, prev


def symmetric_integers(rows, n, name):
    """rows as an n x n symmetric tuple of ints; ValueError on another shape, on an
    asymmetric pair, or on an entry x with int(x) != x (2.5, the string '4', None, inf) or a bool."""
    try:
        out = tuple(tuple(int(x) for x in row) for row in rows)
    except (TypeError, OverflowError) as err:
        raise ValueError(f"{name} must have integer entries") from err
    if out != tuple(map(tuple, rows)) or any(type(x) is bool for row in rows for x in row):
        raise ValueError(f"{name} must have integer entries")
    if len(out) != n or any(len(row) != n for row in out):
        raise ValueError(f"{name} must be {n} x {n}")
    if not is_symmetric(out):
        raise ValueError(f"{name} must be symmetric")
    return out


def symmetric_pivots(m):
    """The pivot rows [p_k, .., a_k,n-1] of a fraction-free symmetric elimination of the
    integer matrix m without row swaps, or None when m is not positive semidefinite.

    Each step replaces a row r below the top by (p_k r - r_0 top) // p_(k-1), the last
    nonzero pivot (1 at first), exact by Sylvester's identity; p_k is a positive multiple
    of the Schur-complement pivot.  A negative pivot fails; a zero pivot needs an all-zero
    row, which is kept as row k and drops out.  m is definite when no p_k is 0, and then
    m = t(U) D U with D_k = p_k / p_(k-1) and U_kj = row_k[j - k] / p_k.
    """
    rows, pivots, prev = [list(row) for row in m], [], 1
    while rows:
        top, rest = rows[0], rows[1:]
        p = top[0]
        if p < 0 or (p == 0 and any(top)):
            return None
        pivots.append(top)
        if p:
            rows = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], top[1:])] for r in rest]
            prev = p
        else:
            rows = [r[1:] for r in rest]
    return pivots


def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    rows, scales = _integer_rows(a)
    sign, d = _eliminate(rows, n, full=False)
    if d is None:
        return 0
    scale = prod(scales)
    return sign * d if scale == 1 else quotient(sign * d, scale)


def inverse(a):
    """Exact inverse by fraction-free Gauss-Jordan; raises ValueError if singular."""
    n, m = shape(a)
    if n != m:
        raise ValueError("inverse needs a square matrix")
    rows, scales = _integer_rows(a)
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    _, d = _eliminate(aug, n, full=True)
    if d is None:
        raise ValueError("matrix is singular")
    # [d I | d (S a)^{-1}] with S = diag(scales), and a^{-1} = (S a)^{-1} S
    return tuple(tuple(quotient(row[n + j] * scales[j], d) for j in range(n)) for row in aug)


def from_json_entries(rows):
    """Parse a JSON matrix whose entries are ints or exact 'p/q' strings; ValueError otherwise."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
        raise ValueError(f"{rows!r} is not a matrix")
    out = []
    for row in rows:
        parsed = []
        for x in row:
            if type(x) is bool or not isinstance(x, (str, int)):
                raise ValueError(f"entry {x!r} is not an exact integer or rational string")
            try:
                parsed.append(entry(x))
            except ZeroDivisionError as err:
                raise ValueError(f"entry {x!r} has a zero denominator") from err
        out.append(tuple(parsed))
    return tuple(out)


def to_json_entries(a):
    """Serialize with ints where possible, 'p/q' strings otherwise."""
    out = []
    for row in a:
        ser = []
        for x in row:
            f = Fraction(x)
            ser.append(int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}")
        out.append(ser)
    return out
