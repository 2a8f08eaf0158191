"""The fixed symplectic space, the group Sp(g, .) and its congruence subgroups.

All arithmetic in this module is exact (ints, and Fractions only where a
denominator appears): the symplectic identities are checked bit-exactly, never
with tolerances.  Symplecticity is verified where a matrix enters from outside
(the constructor, ``from_blocks``, ``from_json``); products and inverses of
verified elements are symplectic by the group law and are not re-checked,
and so are the generators J, (I, B; 0, I) and (t(U)^{-1}, 0; 0, U) by their
block form: only their outside data is checked (B symmetric, U invertible).
"""

import random
from dataclasses import dataclass
from functools import reduce
from operator import matmul

from . import exact


@dataclass(frozen=True)
class SymplecticForm:
    """The standard alternating form with matrix (0, -I; I, 0) on Z^{2g}."""

    g: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("degree g must be a positive integer")

    @property
    def matrix(self):
        n = 2 * self.g
        return tuple(tuple((i - j == self.g) - (j - i == self.g) for j in range(n)) for i in range(n))

    def pairing(self, u, v):
        """Evaluate the form on a pair of 2g-vectors, exactly."""
        if len(u) != 2 * self.g or len(v) != 2 * self.g:
            raise ValueError(f"vectors must have length {2 * self.g}")
        g = self.g
        u = [exact.entry(x) for x in u]
        v = [exact.entry(x) for x in v]
        # t(u) J v with J = (0,-I; I,0), expanded to avoid building J
        return sum(u[g + i] * v[i] - u[i] * v[g + i] for i in range(g))


def pairing(u, v):
    """The standard symplectic pairing, inferring g from the vector length."""
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    if len(u) % 2 != 0:
        raise ValueError("vectors must have even length 2g")
    return SymplecticForm(len(u) // 2).pairing(u, v)


def is_symplectic(m):
    """Exact test of t(M) J M = J for a square 2g x 2g matrix."""
    n, k = exact.shape(m)
    if n != k:
        raise ValueError("matrix must be square")
    if n % 2 != 0:
        raise ValueError("matrix must have even dimension 2g")
    m = exact.to_exact(m)
    j = SymplecticForm(n // 2).matrix
    lhs = exact.mat_mul(exact.mat_mul(exact.transpose(m), j), m)
    return exact.mat_eq(lhs, j)


@dataclass(frozen=True)
class SymplecticMatrix:
    """An exact element of Sp(g, Q), stored as a 2g x 2g exact matrix.

    Entries are ints where integral and Fractions otherwise.  The constructor
    checks t(M) J M = J, so every matrix built from outside data is verified.
    """

    g: int
    entries: tuple

    def __post_init__(self):
        entries = exact.to_exact(self.entries)
        object.__setattr__(self, "entries", entries)
        n, k = exact.shape(entries)
        if n != 2 * self.g or k != 2 * self.g:
            raise ValueError(f"entries must be {2 * self.g} x {2 * self.g}")
        if not is_symplectic(entries):
            raise ValueError("matrix does not preserve the symplectic form")

    @classmethod
    def from_blocks(cls, a, b, c, d):
        a, b, c, d = map(exact.to_exact, (a, b, c, d))
        return cls(len(a), _block_rows(a, b, c, d))

    @property
    def blocks(self):
        """(A, B; C, D) views of the matrix."""
        g = self.g
        m = self.entries
        a = tuple(row[:g] for row in m[:g])
        b = tuple(row[g:] for row in m[:g])
        c = tuple(row[:g] for row in m[g:])
        d = tuple(row[g:] for row in m[g:])
        return a, b, c, d

    def is_integral(self):
        return exact.is_integral(self.entries)

    def det(self):
        return exact.det(self.entries)

    @classmethod
    def _verified(cls, g, entries):
        """Wrap entries symplectic by construction (group law, block form), unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "g", g)
        object.__setattr__(m, "entries", exact.to_exact(entries))
        return m

    def __matmul__(self, other):
        if self.g != other.g:
            raise ValueError("degree mismatch")
        return SymplecticMatrix._verified(self.g, exact.mat_mul(self.entries, other.entries))

    def inverse(self):
        # M^{-1} = J^{-1} t(M) J = (t(D), -t(B); -t(C), t(A)), exact and
        # integral for integral M
        a, b, c, d = (exact.transpose(blk) for blk in self.blocks)
        rows = ([rd + rb for rd, rb in zip(d, exact.mat_neg(b))]
                + [rc + ra for rc, ra in zip(exact.mat_neg(c), a)])
        return SymplecticMatrix._verified(self.g, tuple(rows))

    def to_json(self):
        return {"g": self.g, "entries": exact.to_json_entries(self.entries)}

    @classmethod
    def from_json(cls, data):
        return cls(data["g"], exact.from_json_entries(data["entries"]))


def _block_rows(a, b, c, d):
    """Rows of (A, B; C, D) for exact blocks, all g x g with g >= 1; ValueError otherwise."""
    g = len(a)
    if g < 1 or any(len(blk) != g or any(len(row) != g for row in blk) for blk in (a, b, c, d)):
        raise ValueError(f"blocks must all be {g} x {g}" if g else "blocks must be non-empty")
    return tuple(a[i] + b[i] for i in range(g)) + tuple(c[i] + d[i] for i in range(g))


def congruence_membership(m: SymplecticMatrix, n: int) -> bool:
    """Whether an integral symplectic matrix lies in the level-n subgroup."""
    if n < 1:
        raise ValueError("level must be a positive integer")
    if not m.is_integral():
        raise ValueError("congruence membership needs an integral matrix")
    size = 2 * m.g
    for i in range(size):
        for j in range(size):
            e = m.entries[i][j] - (1 if i == j else 0)
            if int(e) % n != 0:
                return False
    return True


# --- generator sampling -----------------------------------------------------
#
# Sp(2g, Z) is sampled through random words in J, symmetric translations
# (I, B; 0, I) and GL(g, Z) embeddings (t(U)^{-1}, 0; 0, U); enough for the
# property tests, with no claim of uniformity.


def j_matrix(g) -> SymplecticMatrix:
    return SymplecticMatrix._verified(g, SymplecticForm(g).matrix)


def translation(b) -> SymplecticMatrix:
    """(I, B; 0, I) for symmetric B with rational entries."""
    b = exact.to_exact(b)
    g = len(b)
    rows = _block_rows(exact.identity(g), b, exact.zeros(g), exact.identity(g))
    if not exact.is_symmetric(b):
        raise ValueError("translation block must be symmetric")
    return SymplecticMatrix._verified(g, rows)


def gl_embedding(u) -> SymplecticMatrix:
    """(t(U)^{-1}, 0; 0, U) for U in GL(g, Q); U need not be unimodular."""
    u = exact.to_exact(u)
    g = len(u)
    if g < 1 or any(len(row) != g for row in u):
        raise ValueError("U must be a non-empty square matrix")
    a = exact.transpose(exact.inverse(u))  # ValueError for a singular U
    return SymplecticMatrix._verified(g, _block_rows(a, exact.zeros(g), exact.zeros(g), u))


def _random_symmetric(g, rng, bound=2):
    b = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            b[i][j] = b[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in b)


def _random_gl(g, rng):
    # elementary transvection, permutation, or a sign flip
    kind = rng.randrange(3)
    u = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
    if g == 1:
        u[0][0] = rng.choice([1, -1])
    elif kind == 0:
        i, j = rng.sample(range(g), 2)
        u[i][j] = rng.choice([1, -1])
    elif kind == 1:
        perm = list(range(g))
        rng.shuffle(perm)
        u = [[1 if perm[i] == j else 0 for j in range(g)] for i in range(g)]
    else:
        i = rng.randrange(g)
        u[i][i] = -1
    return tuple(tuple(row) for row in u)


def random_symplectic(g, rng=None, word_length=6, bound=2) -> SymplecticMatrix:
    """A random word in the generator set of Sp(2g, Z)."""
    rng = rng or random.Random(0)
    kinds = (lambda: j_matrix(g),
             lambda: translation(_random_symmetric(g, rng, bound)),
             lambda: gl_embedding(_random_gl(g, rng)))
    return reduce(matmul, [kinds[rng.randrange(3)]() for _ in range(rng.randint(1, word_length))])


def random_congruence_element(g, n, rng=None, word_length=3) -> SymplecticMatrix:
    """A random element of the level-n subgroup (products of level-n translations
    and their conjugates by random integral symplectic matrices)."""
    rng = rng or random.Random(0)
    word = []
    for _ in range(rng.randint(1, word_length)):
        t = translation(exact.scalar_mul(n, _random_symmetric(g, rng, 1)))
        if rng.random() < 0.5:  # lower translation, symplectic as t(M) J M = J <=> M J t(M) = J
            t = SymplecticMatrix._verified(g, exact.transpose(t.entries))
        gamma = random_symplectic(g, rng, word_length=2)
        word.append(gamma @ t @ gamma.inverse())
    return reduce(matmul, word)
