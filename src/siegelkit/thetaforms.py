"""Theta constants with characteristics, exact lattice theta series, and the
named cusp forms: the degree-2 weight-10 form (product of the ten even theta
constants squared), the degree-3 weight-18 form (product of the 36 even theta
constants), and the weight-8 difference of the two rank-16 even unimodular
theta series.

Theta constants sum exp(pi i/4 t(d) tau d) i^(t(d) s2) over a box of d = 2n + s1,
symmetric under d -> -d.  One pass per point gives every characteristic: one exp
over the stacked half boxes of all s1, then one real product per s1 with weights
2 Re(i^(t(d) s2)), all 0 if odd (degree 3, radius 5: 6,084 rows, about 0.4 ms).

Lattice coefficients are exact integers.  Short vectors come from a
Fincke-Pohst enumeration decided in fixed-width integers alone: each node
carries integer centre sums and an integer room, both read off the pivot rows
of one fraction-free symmetric elimination of the Gram matrix
(`exact.symmetric_pivots`), and each level's range is an integer square root
and two floor divisions.  A lattice whose integers could leave int64 is
refused; the same bound picks the walk's working type, the narrowest of int16,
int32 and int64 that holds every value it computes (int16 for the named
lattices).  The tree is walked depth first in numpy blocks of at most ENUM_BLOCK
nodes (more only as the children of one parent), each holding its fixed
coordinates, and covers only the half of the set whose first nonzero coordinate
is positive (and 0); the other half is its negative.  Middle-level nodes with
equal centre sums and room have equal subtrees, so each such state is walked on
once and its leaf rows joined with every prefix that reaches it: E16 at bound 6
has 97 states for 8,169 nodes there (about 17 ms against 60 ms for the whole
tree), E8+E8, an orthogonal sum, 4 rooms for 4,561.  The cache is the memory
peak, so it keeps the vectors and their exact norms in the narrowest signed
types that hold every coordinate and the bound: a rank-16 table at bound 6 has
1,112,641 rows of 16 coordinates of at most 28 in absolute value, about 19 MB
in int8 against 151 MB in int64.  Class sizes are counted on the narrow norms,
never widened.  Arithmetic on the vectors is done in int64.
One tally kernel covers genus-g tuples of nonzero vectors (at most
TALLY_BUDGET = 10^9, over every ordering of the full classes) by a bincount of
int16 mixed-radix codes of their inner products.  Each multiset of norm classes
is tallied once, over the positive halves of its sorted combo, and each
arrangement of a run of equal classes once; slot swaps, ties, signs and other
orderings are read off the histogram (E8 genus 3, trace 4: 36 ms, 53 ms
over every arrangement).  A coefficient with a_ii = 0 comes from genus - 1.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import exact
from .fourier import FourierExpansion
from .siegelspace import SiegelPoint


class TruncationError(RuntimeError):
    """Raised when the certified tail estimate exceeds the requested target."""


@dataclass(frozen=True)
class ThetaCharacteristic:
    """A characteristic (s1/2, s2/2) held as doubled bits s1, s2 in {0, 1}^g; parity decides even/odd."""

    g: int
    s1: tuple
    s2: tuple

    def __post_init__(self):
        for name in ("s1", "s2"):
            given = tuple(getattr(self, name))
            bits = tuple(int(x) for x in given)
            if len(bits) != self.g:
                raise ValueError("characteristic vectors must have length g")
            if bits != given or any(b not in (0, 1) for b in bits):
                raise ValueError("doubled characteristic entries must be the bits 0 or 1")
            object.__setattr__(self, name, bits)

    @classmethod
    def from_doubled(cls, bits1, bits2):
        return cls(len(bits1), tuple(bits1), tuple(bits2))

    def doubled(self):
        return self.s1, self.s2

    @property
    def parity(self):
        """exp(4 pi i t(eps1) eps2) = (-1)^(t(s1) s2) as +-1."""
        return -1 if sum(a * b for a, b in zip(self.s1, self.s2)) % 2 else 1

    @property
    def is_even(self):
        return self.parity == 1


@lru_cache(maxsize=8)
def even_characteristics(g):
    """The even characteristics, as a shared tuple; their number is 2^(g-1) (2^g + 1)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    chars = (ThetaCharacteristic.from_doubled(bits1, bits2)
             for bits1 in product((0, 1), repeat=g) for bits2 in product((0, 1), repeat=g))
    return tuple(c for c in chars if c.is_even)


@dataclass(frozen=True)
class TruncationParams:
    """Summation box half-width and the acceptable certified tail."""

    radius: int = 8
    target: float = 1e-10

    def __post_init__(self):
        if isinstance(self.radius, bool) or not isinstance(self.radius, (int, np.integer)) or self.radius < 1:
            raise ValueError("radius must be an integer >= 1")
        if not 0 < self.target < math.inf:      # tail > nan is never true
            raise ValueError("target must be finite and positive")


def theta_tail_estimate(tau: SiegelPoint, trunc: TruncationParams) -> float:
    """Conservative bound for the series tail outside the summation box."""
    lam = float(np.min(np.linalg.eigvalsh(tau.imag)))
    s = np.arange(trunc.radius, trunc.radius + 80, dtype=float)     # the 80 shells beyond the box
    return float(np.sum(((2 * s + 3) ** tau.g - (2 * s + 1) ** tau.g) * np.exp(-math.pi * lam * s * s)))


def theta_constant(char: ThetaCharacteristic, tau: SiegelPoint,
                   trunc: TruncationParams = TruncationParams()) -> complex:
    """Truncated theta constant with characteristic, summed over d = 2(n + eps1) in a box symmetric under d -> -d
    whose halves are summed once, so an odd one is exactly 0.  Raises TruncationError past the target."""
    return theta_constant_with_tail(char, tau, trunc)[0]


def theta_constant_with_tail(char: ThetaCharacteristic, tau: SiegelPoint,
                             trunc: TruncationParams = TruncationParams()):
    """(theta[eps](tau), certified tail): exp(pi i/4 t(d) tau d) i^(t(d) s2) summed over d = 2n + s1,
    axis k running over -2r - b .. 2r + b in steps of 2 (b = s1_k, r = radius), read off the one
    `_theta_values` pass at tau.  Raises TruncationError when the tail exceeds the target."""
    if char.g != tau.g:
        raise ValueError("characteristic and point have different degrees")
    values, tail = _theta_values(tau.g, trunc, tau.tau.tobytes())
    return complex(values[char.s1 + char.s2]), tail


@lru_cache(maxsize=8)
def _theta_values(g: int, trunc: TruncationParams, tau_bytes: bytes):
    """(theta[s1; s2] for all s1, s2 in {0, 1}^g, indexed by their 2g bits, read-only, and the tail) at
    the point whose complex128 entries are tau_bytes.  Raises before the layout is built, with nothing
    cached: ValueError past THETA_BOX_ROWS, TruncationError when the tail exceeds the target."""
    rows = ((4 * trunc.radius + 3) ** g + 1) // 2        # the half boxes of all 2^g s1
    if rows > THETA_BOX_ROWS:
        raise ValueError(f"theta boxes of {rows} rows at degree {g}, radius {trunc.radius} "
                         f"exceed THETA_BOX_ROWS = {THETA_BOX_ROWS}")
    tau = SiegelPoint(g, np.frombuffer(tau_bytes, dtype=complex).reshape(g, g))
    tail = theta_tail_estimate(tau, trunc)
    if tail > trunc.target:
        raise TruncationError(f"tail estimate {tail:.3e} exceeds target {trunc.target:.3e}; increase the radius")
    monomials, weights = _theta_layout(g, trunc.radius)
    upper = np.triu_indices(g)
    # t(d) tau d as rows (Re, Im); np.dot casts for BLAS, @ takes a mixed-type loop (90 us, not 20, at 3, 5)
    quad = np.dot(monomials, np.stack([tau.real[upper], tau.imag[upper]], axis=1)).view(complex)
    terms = np.exp(1j * math.pi / 4 * quad).view(float)          # rows (Re, Im) again
    blocks = np.split(terms, np.cumsum([w.shape[1] for w in weights])[:-1])
    values = np.stack([np.dot(w, t) for w, t in zip(weights, blocks)]).view(complex).reshape((2,) * (2 * g))
    values.flags.writeable = False
    return values, tail


@lru_cache(maxsize=8)
def _theta_layout(g: int, r: int):
    """The half boxes of every s1 in {0, 1}^g in the order of `product`, read-only: their stacked monomials
    d_i d_j (i <= j, off-diagonal doubled) in the narrowest signed type, and per s1 the int8 weights of its rows
    for every s2.  Box rows k and n - 1 - k are d and -d, with one term, so the first ceil(n/2) rows weigh
    2 Re(i^(t(d) s2)) in {2, 0, -2} and the centre d = 0 of s1 = 0 weighs 1 (t(d) s2 is odd if the char is)."""
    i, j = np.triu_indices(g)
    s2 = np.array(list(product((0, 1), repeat=g)))
    monomials, weights = [], []
    for s1 in product((0, 1), repeat=g):
        axes = [np.arange(-2 * r - b, 2 * r + b + 1, 2) for b in s1]
        d = np.stack([grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")], axis=1)
        d = d[:(len(d) + 1) // 2]
        monomials.append(d[:, i] * d[:, j] * np.where(i == j, 1, 2))
        weights.append(np.array([2, 0, -2, 0], dtype=np.int8)[s2 @ d.T % 4])
    weights[0][:, -1] = 1                     # the centre d = 0 of s1 = 0
    monomials = np.concatenate(monomials).astype(np.min_scalar_type(-2 * (2 * r + 1) ** 2 - 1))
    for a in (monomials, *weights):
        a.flags.writeable = False
    return monomials, tuple(weights)


# --- even unimodular lattices -------------------------------------------------


@dataclass(frozen=True)
class LatticeGram:
    """Exact integer Gram matrix of an even positive-definite lattice."""

    name: str
    rank: int
    gram: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"lattice rank must be at least 1, not {self.rank}")
        rows = exact.symmetric_integers(self.gram, self.rank, "gram")
        object.__setattr__(self, "gram", rows)
        if any(rows[i][i] % 2 for i in range(self.rank)):
            raise ValueError("lattice must be even")
        pivots = exact.symmetric_pivots(rows)
        if pivots is None or not all(row[0] for row in pivots):
            raise ValueError("gram must be positive definite")

    def determinant(self):
        return exact.det(self.gram)

    def is_even_unimodular(self):
        return self.determinant() == 1

    def norm(self, x):
        """t(x) G x, exactly, for an integer coordinate vector of length rank; numpy entries are
        taken as Python integers, so a narrow row such as a `short_vectors` one cannot wrap."""
        x = [operator.index(xi) for xi in x]
        if len(x) != self.rank:
            raise ValueError(f"{self.name} needs {self.rank} coordinates, not {len(x)}")
        return sum(xi * sum(g * xj for g, xj in zip(row, x)) for xi, row in zip(x, self.gram))


def _cartan_e8():
    a, b = np.array([(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]).T - 1
    cartan = 2 * np.eye(8, dtype=np.int64)
    cartan[a, b] = cartan[b, a] = -1
    return cartan


def _d16_plus_gram():
    # basis B: the glue vector (1/2, ..., 1/2) followed by e_i - e_{i+1}
    # (i = 2..15) and e_15 + e_16; doubled coordinates keep it integral
    basis = np.zeros((16, 16), dtype=np.int64)
    basis[0] = 1
    i = np.arange(1, 15)
    basis[i, i], basis[i, i + 1] = 2, -2
    basis[15, 14:] = 2
    return basis @ basis.T // 4


@lru_cache(maxsize=None)
def named_lattice(name: str) -> LatticeGram:
    key = name.lower().replace("_", "").replace("+", "").replace("oplus", "")
    if key == "e8":
        return LatticeGram("E8", 8, _cartan_e8())
    if key in ("e8e8", "e8xe8"):
        return LatticeGram("E8+E8", 16, np.kron(np.eye(2, dtype=np.int64), _cartan_e8()))
    if key == "e16":
        return LatticeGram("E16", 16, _d16_plus_gram())
    raise ValueError(f"unknown lattice {name!r}")


@lru_cache(maxsize=32)
def _enumerate(lattice: LatticeGram, bound: int):
    """(short_vectors(lattice, bound), the exact norm t(x) G x of each row), both read-only; the
    vectors are of the narrowest signed type that holds -top - 1, for top the largest absolute
    coordinate (int8 for the named lattices up to bound 8), so x -> -x is exact, and the norms of
    the narrowest one that holds -bound - 1.

    With the pivot rows [p_k, ..] of the reversed Gram (p_(-1) = 1) and the centre sums
    C_k = sum_{j>k} row_k[j - k] y_j, t(y) G y = sum_k L_k^2 / (p_k p_(k-1)), L_k = p_k y_k + C_k.
    A node about to fix y_i holds C_k (k <= i) and room = p_i (bound - the terms k > i), an
    integer: those terms form a Schur complement of denominator p_i.  y_i is allowed iff
    L_i^2 <= T = p_(i-1) room, a range of floor divisions by p_i around t = isqrt(T); the
    child's room is (T - L_i^2) // p_i, exactly, and a leaf's norm is bound - room.  Bounds:
    T <= p_i p_(i-1) bound, and a fixed y_k has L_k^2 <= p_k p_(k-1) bound, so |y_k| <= Y_k =
    (isqrt(p_k p_(k-1) bound) + M_k) // p_k with M_k = sum_{j>k} |row_k[j - k]| Y_j, which bounds
    every partial C_k.  With peak the largest of each p_k p_(k-1) bound, M_k and pivot-row entry,
    every value the walk computes (C_k, room, T, t, (t + 1)^2, t +- C_k, p_i y_i, L_i) is within
    2 peak + 2 in absolute value, and the walk works in the narrowest of int16, int32 and int64
    that holds it.  ValueError unless peak is below 2^62, so that int64 always does.

    The tree is walked depth first in blocks of nodes of one level; a block with more than
    ENUM_BLOCK children is split into runs of whole parents, the first expanded first, so the
    leaves come out in lexicographic order.  A node's subtree (coordinates, ranges and leaf norms
    bound - room) depends only on its state (C_0..C_i, room); the all-zero prefix, whose children
    start at 0, is the only node of its level with room p_i bound.  So a block of the middle level
    cut = (rank - 1) // 2 walks on the first node of each state only, and each prefix, in order, is
    joined with its state's leaf rows in runs of about ENUM_BLOCK rows, each half row one item.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    r = lattice.rank
    rows = exact.symmetric_pivots([row[::-1] for row in lattice.gram[::-1]])
    p = [row[0] for row in rows]
    prev = [1] + p[:-1]
    ymax, cmax = [0] * r, [0] * r              # Y_k and M_k
    for k in range(r - 1, -1, -1):
        cmax[k] = sum(abs(a) * y for a, y in zip(rows[k][1:], ymax[k + 1:]))
        ymax[k] = (math.isqrt(p[k] * prev[k] * bound) + cmax[k]) // p[k]
    peak = max([a * b * bound for a, b in zip(p, prev)] + cmax + [abs(a) for row in rows for a in row])
    if peak >= 1 << 62:
        raise ValueError(f"{lattice.name} at bound {bound} needs integers up to {peak}, past 2^62")
    # every working value is within 2 peak + 2 (int16 for the named lattices), and below the
    # guard's 2^62 within peak + 2 isqrt(peak) + 2, which int64 holds
    work = next((t for t in (np.int16, np.int32) if 2 * peak + 2 <= np.iinfo(t).max), np.int64)
    upper = np.array([[0] * k + row for k, row in enumerate(rows)], dtype=work)

    def descend(top, stop, sums, room, coords, owner):
        """Blocks (C_k for k <= stop, room, fixed coordinates, owner or None) of level stop under level top."""
        stack = [(top, sums, room, coords, owner)]
        while stack:
            i, sums, room, coords, owner = stack.pop()
            if i == stop:
                yield sums, room, coords, owner
                continue
            c, cap = sums[:, i], prev[i] * room     # cap is T
            t = np.sqrt(cap, dtype=float).astype(work)  # isqrt: a float sqrt, then one integer step each way
            t -= t * t > cap
            t += (t + 1) * (t + 1) <= cap
            lo, hi = -((t + c) // p[i]), (t - c) // p[i]
            # the all-zero prefix, the least of its level, can only come first in a block; its children
            # start at 0, so the tree holds 0 and the vectors whose first nonzero coordinate is positive
            if not coords[0].any():
                lo[0] = max(lo[0], 0)
            width = np.maximum(hi - lo + 1, 0, dtype=np.intp)
            ends = np.cumsum(width)
            if not ends[-1]:                        # dead ends only
                continue
            if ends[-1] > ENUM_BLOCK and len(ends) > 1:     # runs of whole parents, the first on top
                stack += reversed([(i, sums[run], room[run], coords[run], None if owner is None else owner[run])
                                   for run in _runs(ends, width)])
                continue
            parent = np.repeat(np.arange(len(ends)), width)
            xi = (np.repeat(lo + width - ends, width) + np.arange(ends[-1])).astype(work)
            lin = p[i] * xi + np.take(c, parent)
            room = (np.take(cap, parent) - lin * lin) // p[i]
            coords = np.take(coords, parent, axis=0)
            coords[:, r - 1 - i] = xi               # y_i is x_(r-1-i)
            if i:
                sums = np.take(sums[:, :i], parent, axis=0) + np.multiply.outer(xi, upper[:i, i])
            stack.append((i - 1, sums, room, coords, None if owner is None else np.take(owner, parent)))

    cut, split = (r - 1) // 2, r // 2           # the middle level, and the prefix columns fixed above it
    pieces = []             # per block of level cut, in order: leaf rows, their norms and their join
    # the root, its row of fixed coordinates in the narrowest signed type that holds every -Y_k - 1
    root = (np.zeros((1, r), dtype=work), np.array([p[-1] * bound], dtype=work),
            np.zeros((1, r), dtype=np.min_scalar_type(-max(ymax) - 1)), None)
    for sums, room, prefix, _ in descend(r - 1, cut, *root):
        reps, state = _states(np.column_stack([sums, room]))
        origin = np.arange(len(reps), dtype=np.int32) if len(reps) < len(state) else None   # for a join
        walked = [(coords, (bound - room).astype(np.min_scalar_type(-bound - 1)), owner) for _, room, coords, owner
                  in descend(cut, -1, sums[reps], room[reps], prefix[reps], origin)]
        # no state repeats: leaves as they are (joined, a rank-8 Gram took 7.14 ms, not 5.15: medians, 15 processes)
        if origin is None or not walked:
            pieces += [(rows, leaf_norms, ()) for rows, leaf_norms, _ in walked]
            continue
        rows, leaf_norms, owners = map(np.concatenate, zip(*walked))     # joined with each prefix
        first = np.searchsorted(owners, np.arange(len(reps) + 1))     # each state's first leaf
        width, start = np.diff(first)[state], first[state]
        pieces.append((rows, leaf_norms, (prefix[width > 0], width[width > 0], start[width > 0])))
    # the narrowest signed type that holds every coordinate and -top - 1, so x -> -x is exact; the
    # rows of a join hold only the first prefix of each state, and its live prefixes the others
    top = max(max(-int(a.min()), int(a.max())) for rows, _, join in pieces for a in (rows, *join[:1]))
    half = sum(int(join[1].sum()) if join else len(rows) for rows, _, join in pieces)
    vecs = np.empty((2 * half - 1, r), dtype=np.min_scalar_type(-top - 1))
    norms, at = np.empty(2 * half - 1, dtype=np.min_scalar_type(-bound - 1)), half - 1
    for k, (rows, leaf_norms, join) in enumerate(pieces):   # each leaf block is freed once copied
        if not join:
            vecs[at:at + len(rows)], norms[at:at + len(rows)], pieces[k] = rows, leaf_norms, None
            at += len(rows)
            continue
        heads, width, start = join
        heads = _items(heads.astype(vecs.dtype, copy=False)[:, :split])
        tails = _items(rows.astype(vecs.dtype, copy=False)[:, split:])
        ends = at + np.cumsum(width)
        for run in _runs(ends, width):          # runs of whole prefixes of about ENUM_BLOCK rows
            span = slice(ends[run.start] - width[run.start], ends[run.stop - 1])
            _items(vecs[:, :split])[span] = np.repeat(heads[run], width[run])
            leaf = np.repeat(start[run] - ends[run] + width[run], width[run]) + np.arange(span.start, span.stop)
            _items(vecs[:, split:])[span], norms[span] = np.take(tails, leaf), np.take(leaf_norms, leaf)
        at, pieces[k] = ends[-1], None
    # x -> -x reverses lexicographic order: copy the rows back reversed as opaque items, then negate
    _items(vecs)[:half - 1] = _items(vecs)[:half - 1:-1]
    np.negative(vecs[:half - 1], out=vecs[:half - 1])
    norms[:half - 1] = norms[:half - 1:-1]
    vecs.setflags(write=False)
    norms.setflags(write=False)
    return vecs, norms


def _runs(ends, width):
    """Runs a:b of the items of these widths and cumulative ends, of at most ENUM_BLOCK rows or one item."""
    a = 0
    while a < len(ends):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - width[a] + ENUM_BLOCK, "right")))
        yield slice(a, b)
        a = b


def _states(keys):
    """The first row of each distinct row of keys, in order, and each row's position among them."""
    _, first, state = np.unique(_items(keys), return_index=True, return_inverse=True)
    return np.sort(first), np.searchsorted(np.sort(first), first[state])


def _items(a):
    """The rows of a 2-d array whose rows are contiguous as the items of a 1-d view."""
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize)))[:, 0]


@lru_cache(maxsize=32)
def short_vectors(lattice: LatticeGram, bound: int):
    """All integer coordinate vectors with t(x) G x <= bound (zero included),
    as a read-only array in lexicographic order.  Its dtype is the narrowest
    signed integer type that holds every coordinate, so arithmetic that could
    leave that type must widen it first (`lattice_theta_coefficients` takes its
    products in int64, `LatticeGram.norm` in Python integers).

    The tree of partial vectors is walked depth first in blocks of at most
    ENUM_BLOCK nodes (more only as the children of one parent), in exact
    integers only (`_enumerate`, which refuses a lattice whose integers could
    leave int64), so every leaf is a short vector and none is missed.  It runs
    over y = x reversed, so it branches on x_0 first, and each block's children,
    in increasing order under each parent, stay in lexicographic order.  The
    tree holds only 0 and the vectors whose first nonzero coordinate is
    positive; the rest are their negatives, in reverse order.  Each subtree
    state of the middle level is walked once, its leaf rows joined with every
    prefix that reaches it; `_enumerate` caches the exact norms beside them.
    """
    return _enumerate(lattice, bound)[0]


# children one block of the short-vector walk may have before it is split at parents
ENUM_BLOCK = 1 << 15
# codes per bincount pass, rounded to whole vectors of the first class's positive half
TALLY_CHUNK = 1 << 16
# tuples of nonzero vectors one call may cover, counted over every ordering of the full classes although
# only sorted combos' positive halves are tallied (E8 genus 3: 387,072,000 at trace 4, 4,907,520,000 at 5)
TALLY_BUDGET = 10 ** 9
# rows the stacked half theta boxes of one (degree, radius) may have, ((4 radius + 3)^g + 1) / 2; the largest
# accepted, 930,484 rows at degree 3 and radius 30, peaks at about 156 MB resident (30 MB after imports)
THETA_BOX_ROWS = 10 ** 6


def lattice_theta_coefficients(lattice: LatticeGram, genus: int, trace_bound: int) -> FourierExpansion:
    """Exact coefficients c(A) = #{(x_1..x_genus) : Gram(x_i, x_j) = 2A}.

    The support covers every half-integral A with Tr(2A) <= 2 * trace_bound;
    weight is rank/2 at level 1.  Genus 1 reads the class sizes.  If a_ii = 0,
    then x_i = 0 and row i of 2A is 0, so c(A) comes from the genus - 1 table.
    Each multiset of nonzero norm classes with sum <= 2 * trace_bound is tallied
    once, as its sorted combo, over tuples from the positive halves of the
    classes: pair i < j gives the digit t(x_i) G x_j + trace_bound (in
    0..2 * trace_bound by Cauchy-Schwarz) of an int16 mixed-radix code, filled
    from one int64 product block per class and chunk and counted by bincount,
    TALLY_CHUNK at a time.  If the first r >= 2 slots share a class, only tuples
    whose slot-0 index is below the run's others are counted (the rest are
    raised past radix^pairs and dropped); the cube adds that histogram with slot
    0 swapped with each run slot, and the ties, whose least run index repeats,
    read off the (1, 2) product plane.  The signs are unfolded on the histogram:
    x_k -> -x_k reflects (np.flip) the digit of each pair holding k, and s, -s
    give the same code, so the full counts are twice the sum over the
    2^(genus - 1) sign patterns with s_1 = +1.  Another ordering, axis k at axis
    pos[k] of the sorted combo (a stable sort), is one np.transpose.
    Cost guards: genus <= 3 and trace_bound <= 8; at rank 16, genus <= 2,
    trace_bound <= 4 (trace 5 would enumerate 46.5M vectors) and trace_bound <= 3
    at genus 2 (trace 4 would hold 4,901,990,400 tuples); TALLY_BUDGET tuples of
    nonzero vectors, counted over every ordering of the full classes.
    """
    if genus < 1:
        raise ValueError("genus must be >= 1")
    if trace_bound < 1 or trace_bound > 8:
        raise ValueError("trace_bound must be in 1..8")
    if lattice.rank >= 16 and (genus > 2 or trace_bound > (4 if genus == 1 else 3)):
        raise ValueError("rank-16 lattices are guarded to genus <= 2 and trace_bound <= 4 "
                         "(trace_bound <= 3 at genus 2)")
    if genus > 3:
        raise ValueError("genus is guarded to <= 3")
    bound = 2 * trace_bound
    vecs = short_vectors(lattice, bound)
    vec_norms = _enumerate(lattice, bound)[1]     # exact, cached beside vecs by that call
    # counted in place: a bincount would first widen the norms to intp (8.9 MB at rank 16, bound 6)
    sizes = np.array([np.count_nonzero(vec_norms == n) for n in range(bound + 1)])
    if genus == 1:
        tally = {(n,): int(sizes[n]) for n in np.flatnonzero(sizes).tolist()}
        return FourierExpansion(1, 1, lattice.rank // 2, tally, trace_bound=bound)
    # sizes[0] == 1: the zero vector is alone in its class, and no tallied tuple holds it
    combos = [combo for combo in product(np.flatnonzero(sizes)[1:].tolist(), repeat=genus)
              if sum(combo) <= bound]
    tuples = sum(math.prod(int(sizes[n]) for n in combo) for combo in combos)
    if tuples > TALLY_BUDGET:
        raise ValueError(f"{tuples} tuples of nonzero vectors exceed TALLY_BUDGET = {TALLY_BUDGET}")
    tally = {}
    for a, count in lattice_theta_coefficients(lattice, genus - 1, trace_bound).items():
        for i in range(genus):            # a zero row and column at i
            two_a = [row[:i] + (0,) + row[i:] for row in a.twoA]
            two_a.insert(i, (0,) * genus)
            tally[tuple(v for k, row in enumerate(two_a) for v in row[k:])] = count
    gram_np = np.array(lattice.gram, dtype=np.int64)
    pairs = list(combinations(range(genus), 2))
    radix = bound + 1
    weights = [radix ** (len(pairs) - 1 - p) for p in range(len(pairs))]
    # the walk's rule: the narrowest of int16, int32 and int64 that holds every code, a tuple that a run
    # leaves out adding radix^pairs per run slot (int16 under the guards: below 3 * 17^3)
    sentinel = radix ** len(pairs)
    code_type = next(t for t in (np.int16, np.int32, np.int64) if genus * sentinel - 1 <= np.iinfo(t).max)

    @lru_cache(maxsize=None)
    def rows(n):                          # the positive half of the class of norm n
        half = len(vecs) // 2 + 1         # vecs[half:]: first nonzero coordinate positive
        return vecs[half:][vec_norms[half:] == n].astype(np.int64)   # products are taken in int64

    def spread(block, i, j):              # a block of t(x_i) G x_j on axes i and j of the tuple
        return np.expand_dims(block, tuple(set(range(genus)) - {i, j}))

    def permuted(cube, pos):              # slot k to slot pos[k]: pair (i, j) to (pos[i], pos[j]), t(x) G y = t(y) G x
        return np.transpose(cube, [pairs.index(tuple(sorted((pos[i], pos[j])))) for i, j in pairs])

    buffer = np.empty(0, dtype=code_type)     # filled by every pass, grown when a pass needs more

    def unfolded(combo):                  # the full histogram of a sorted combo, one axis per pair
        nonlocal buffer
        shape = [int(sizes[n]) // 2 for n in combo]
        run = [k for k in range(1, genus) if combo[k] == combo[0]]     # the later slots of slot 0's class
        # pair (1, 2) once, at weight 1; pairs with slot 0 per chunk, one product per class
        plane = rows(combo[1]) @ gram_np @ rows(combo[2]).T if genus == 3 else 0
        code = (np.full([1] + shape[1:], trace_bound * sum(weights)) + plane).astype(code_type)
        counts = np.zeros(genus * sentinel, dtype=np.int64)      # from sentinel up, left out and dropped
        start = 0
        while start < shape[0] - bool(run):     # a run tallies slot-0 indices below each run slot's only
            width = [shape[k] - (start + 1 if k in run else 0) for k in range(1, genus)]
            left = rows(combo[0])[start:start + max(1, TALLY_CHUNK // math.prod(width))] @ gram_np
            products = {n: (left @ rows(n)[start + 1 if n == combo[0] else 0:].T).astype(code_type)
                        for n in set(combo[1:])}
            size = len(left) * math.prod(width)
            if size > len(buffer):
                buffer = np.empty(size, dtype=code_type)
            chunk = buffer[:size].reshape([len(left)] + width)
            np.copyto(chunk, code[(slice(None), *(slice(-w, None) for w in width))])
            for (i, j), w in zip(pairs, weights):
                if not i:
                    block = w * products[combo[j]]
                    if j in run:            # row t's slot j at or below its own slot 0 (columns below t)
                        np.copyto(block, sentinel, where=np.tri(*block.shape, -1, dtype=bool))
                    chunk += spread(block, 0, j)
            counts += np.bincount(chunk.ravel(), minlength=len(counts))
            start += len(left)
        cube = counts[:sentinel].reshape((radix,) * len(pairs))
        if run:     # the positive halves: slot 0 least, run slot k least (slots 0 and k swapped), or a tie
            cube = cube + sum(permuted(cube, [k, *range(1, k), 0, *range(k + 1, genus)]) for k in run)
            tie, every = combo[0] + trace_bound, np.arange(radix)      # the digit of t(x) G x
            if genus == 3:      # (x, x, z) at (N, a, a), a = t(x) G z; a run of 3: x < z, also (x, z, x), (z, x, x)
                digit = (plane + trace_bound).astype(code_type)
                ties = np.bincount(digit[np.triu_indices(shape[0], 1)] if run[1:] else digit.ravel(), minlength=radix)
                for axes in ((tie, every, every), (every, tie, every), (every, every, tie))[:2 * len(run) - 1]:
                    cube[axes] += ties
            if len(run) == genus - 1:       # (x, .., x)
                cube[(tie,) * len(pairs)] += shape[0]
        # x_k -> -x_k reflects the digit of every pair holding k; s and -s give the same code
        return 2 * sum(np.flip(cube, [p for p, (i, j) in enumerate(pairs) if signs[i] != signs[j]])
                       for signs in product((0,), *[(0, 1)] * (genus - 1)))

    cubes = {combo: unfolded(combo) for combo in combos if list(combo) == sorted(combo)}
    for combo in combos:
        pos = np.argsort(np.argsort(combo, kind="stable")).tolist()    # axis k is axis pos[k] of the sorted combo
        counts = permuted(cubes[tuple(sorted(combo))], pos).ravel()
        for value in np.flatnonzero(counts).tolist():
            off = iter([value // w % radix - trace_bound for w in weights])
            key = tuple(combo[i] if i == j else next(off) for i in range(genus) for j in range(i, genus))
            tally[key] = int(counts[value])
    return FourierExpansion(genus, 1, lattice.rank // 2, dict(sorted(tally.items())), trace_bound=bound)


def schottky_chi8_coefficients(genus: int, trace_bound: int) -> FourierExpansion:
    """Coefficient table of theta(E8+E8) - theta(E16) at genus <= 2.

    Identically zero on the computed support: the two theta series agree up
    to genus 3 and first differ at genus 4 (Igusa's Schottky form).
    """
    if genus > 2:
        raise NotImplementedError("genus > 2 coefficients of the difference are not supported")
    # E16 first: examples-table peaks at 74.9-75.1 MB resident, 75.4-75.5 MB the other way (3 runs)
    b = lattice_theta_coefficients(named_lattice("e16"), genus, trace_bound)
    a = lattice_theta_coefficients(named_lattice("e8e8"), genus, trace_bound)
    return a - b


# --- named product forms -------------------------------------------------------


def _even_theta_product(tau: SiegelPoint, trunc: TruncationParams, square: bool) -> complex:
    thetas = (theta_constant(char, tau, trunc) for char in even_characteristics(tau.g))
    return math.prod((t * t if square else t for t in thetas), start=1.0 + 0j)


@lru_cache(maxsize=1)
def chi10_normalization() -> float:
    """The constant c = -2^-14 with c * prod theta[eps]^2 = sin^2(pi z) q1 q2 + ... .

    The product's q1 q2 term is 4096 (zeta - 2 + 1/zeta) q1 q2 = -2^14 sin^2(pi z) q1 q2
    (Igusa 1962).  At tau0 = [[3.5i, 1/4], [1/4, 3.8i]] the next terms are below 1e-8 of
    it, so c * prod theta^2 must match it to 1e-6; else RuntimeError, and nothing is cached.
    """
    c = -(2.0 ** -14)
    t1, t2, z = 3.5, 3.8, 0.25
    tau0 = SiegelPoint(2, np.array([[1j * t1, z], [z, 1j * t2]]))
    leading = math.sin(math.pi * z) ** 2 * math.exp(-2 * math.pi * (t1 + t2))
    ratio = c * _even_theta_product(tau0, TruncationParams(), square=True) / leading
    if abs(ratio - 1) > 1e-6:
        raise RuntimeError(f"the chi10 leading-term estimate c * prod theta^2 / (sin^2(pi z) q1 q2) "
                           f"= {ratio:.9g} at tau0 is not within 1e-6 of 1")
    return c


def chi10(tau: SiegelPoint, trunc: TruncationParams = TruncationParams(radius=10, target=1e-8)) -> complex:
    """The degree-2 weight-10 cusp form, normalized by its leading development."""
    if tau.g != 2:
        raise ValueError("chi10 lives on degree 2")
    return chi10_normalization() * _even_theta_product(tau, trunc, square=True)


def chi18(tau: SiegelPoint, trunc: TruncationParams = TruncationParams(radius=5, target=1e-8)) -> complex:
    """The degree-3 weight-18 cusp form: product of the 36 even theta constants."""
    if tau.g != 3:
        raise ValueError("chi18 lives on degree 3")
    if trunc.radius > 6:
        raise ValueError("radius is guarded to <= 6 at degree 3")
    return _even_theta_product(tau, trunc, square=False)


def vanishing_order_fit(form, tau1, tau2, zs):
    """Fit the order of vanishing of a degree-2 form along the diagonal z = 0."""
    zs = [float(z) for z in zs]
    mags = [abs(form(SiegelPoint(2, np.array([[tau1, z], [z, tau2]], dtype=complex)))) for z in zs]
    return float(np.polyfit(np.log(zs), np.log(mags), 1)[0])
