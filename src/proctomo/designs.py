"""Measurement resources: Pauli product bases and mutually unbiased bases.

Pauli conventions: |0,s> / |1,s> are the +1 / -1 eigenvectors of sigma_s, so
|0,z> = |0>, |0,x> = |+>, |0,y> = (|0> + i|1>)/sqrt(2).  ``PAULI_VECTORS``
is the one table of all six, read by the Pauli kernels of ``simulate``.  A
setting on n qubits is a word over ``AXES = ('x', 'y', 'z')``; tables index
settings in base 3 with that digit order, qubit 0 most significant.

MUB families exist here for D an odd prime and for D = 2^m.  Both builders
return the same three phase tables, from which ``MubFamily`` fills any
basis: basis 0 is the computational basis, and vector t of basis a+1 is
roots[(f[a] + c[t]) mod q]/sqrt(D) for the q-th roots of unity and two
D x D integer tables, phase vectors f and character table c.  Odd prime D
(Weyl-Heisenberg quadratic phases omega^(j l^2 + t l)): q = D,
f[j, l] = j l^2, c[t, l] = t l.
D = 2^m (Galois-ring GR(4, m) trace construction over the Teichmueller
set): q = 4, f[a, x] = Tr(T(ax)), c[b, x] = 2 tr(bx), read from GF(2^m)
arithmetic alone.  The stored primitive polynomials over GF(2) are (by
degree): x+1, x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1, x^6+x+1, x^7+x+1,
x^8+x^4+x^3+x^2+1.

``mub_family`` builds each dimension's family once per process and returns
the same read-only :class:`MubFamily` on every later call.  The family holds
only the tables (O(D^2) memory) and builds one basis at a time on request.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channels import _check_int

AXES = ("x", "y", "z")

# columns are |0,s> and |1,s>
_EIG = {
    "z": np.array([[1, 0], [0, 1]], dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}

# binary primitive polynomials, coefficient of x^j at bit j
_GF2_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
}

__all__ = [
    "AXES",
    "PAULI_VECTORS",
    "MubFamily",
    "mub_family",
    "near_isotropy_defect",
]

# column u = 2*axis + o is the eigenvector |o, s> of sigma_s, s = AXES[axis]
PAULI_VECTORS = np.concatenate([_EIG[axis] for axis in AXES], axis=1)
PAULI_VECTORS.setflags(write=False)


EXACT_TOL = 1e-12     # max entry error of an exact identity (roots, orthonormality, closure)
UNBIASED_TOL = 1e-10  # max ||<u|v>|^2 - 1/D| for vectors u, v of two different bases


@dataclass(frozen=True, eq=False)  # identity: == on array fields is ambiguous
class MubFamily:
    """D+1 mutually unbiased orthonormal bases of C^D, held as phase tables.

    Basis 0 is the computational basis, and vector t of basis a+1 is
    ``roots[(f[a] + c[t]) % q] / sqrt(D)`` with q = len(``roots``): the
    fill of the module docstring.  ``basis(b)`` builds one D x D basis from
    the tables, so a caller that reads one basis at a time never holds the
    (D+1) x D x D stack; ``vectors()`` builds the whole stack on each call.
    The family keeps read-only copies of the tables and hands out read-only
    arrays, so one family can be shared between callers and threads, and a
    caller's array is never shared; ``f`` and ``c`` are kept reduced mod q,
    which leaves every basis as it is.

    Checked, within ``EXACT_TOL`` per entry and ``UNBIASED_TOL`` per squared
    overlap: ``f`` and ``c`` are D x D integer tables; the roots have
    modulus 1 and roots[k] roots[l] = roots[(k + l) mod q], so they are the
    powers of one q-th root of unity omega; chi = ``basis(1)`` is unitary
    and a character table (conj(chi_s) * chi_t * sqrt(D) is again a row of
    chi for all s, t); and bases 1..D are pairwise unbiased.  Every family
    ``mub_family`` builds passes: the Fourier table for odd prime D, the
    Walsh table over GF(2^m) for D = 2^m.  Tables that fail raise
    ValueError, even if their bases are mutually unbiased.

    True by construction of the tables, and so not checked: basis 0 is
    computational; every entry of bases 1..D has modulus 1/sqrt(D), which is
    unbiasedness against basis 0; and every basis a+1 is
    omega^(f[a] - f[0]) times chi, column by column.  Hence every basis is
    orthonormal when chi is, and the overlaps of vector t of basis a with
    vector t' of basis b are (conj(g_a) * g_b) . chi_u / sqrt(D), with g_a
    = sqrt(D) times row 0 of basis a and chi_u = conj(chi_t) * chi_t' *
    sqrt(D), a row of chi.  One (D-a) x D by D x D product per basis a thus
    gives every overlap of basis a with every later basis: O(D^4 / 2) work
    in all, and no temporary larger than one D x D block.
    """

    dim: int
    roots: np.ndarray
    f: np.ndarray
    c: np.ndarray

    # roots / sqrt(D) twice over, so f[a] + c indexes it without a mod
    _table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.dim
        for tab in (self.f, self.c):
            tab = np.asarray(tab)
            if tab.shape != (d, d) or not np.issubdtype(tab.dtype, np.integer):
                raise ValueError("expected D x D integer tables f and c")
        roots = _read_only_copy(self.roots, complex)
        if roots.ndim != 1 or not len(roots):
            raise ValueError("expected a non-empty vector of roots")
        if np.abs(np.abs(roots) - 1.0).max() > EXACT_TOL:
            raise ValueError("roots has an entry of modulus other than 1")
        q = len(roots)
        k = np.arange(q)
        if np.abs(np.outer(roots, roots) - roots[(k[:, None] + k) % q]).max() > EXACT_TOL:
            raise ValueError("roots are not the powers of one q-th root of unity")
        f = _read_only_copy(np.mod(self.f, q), np.int64)
        c = _read_only_copy(np.mod(self.c, q), np.int64)
        table = _read_only_copy(np.tile(roots / np.sqrt(d), 2), complex)
        for name, val in (("roots", roots), ("f", f), ("c", c), ("_table", table)):
            object.__setattr__(self, name, val)

        chi = self.basis(1)
        if not _is_unitary(chi):
            raise ValueError("basis 1 is not orthonormal")
        _check_character_table(chi)
        root = np.sqrt(d)
        g = root * table[f + c[0]]  # g[a] = sqrt(D) row 0 of basis a+1
        for a in range(1, d):
            ovl = (g[a:] * g[a - 1].conj()) @ chi.T / root
            dev = np.abs(np.abs(ovl) ** 2 - 1.0 / d).max(axis=1)
            bad = np.flatnonzero(dev > UNBIASED_TOL)
            if bad.size:
                raise ValueError(f"bases {a}, {a + 1 + bad[0]} are not unbiased")

    def basis(self, b: int) -> np.ndarray:
        """Basis b as a read-only D x D array, vector t in row t."""
        d = self.dim
        if not 0 <= b <= d:
            raise IndexError(f"basis {b} out of range 0..{d}")
        if b == 0:
            out = np.eye(d, dtype=complex)
        else:
            out = self._table[self.f[b - 1] + self.c]
        out.setflags(write=False)
        return out

    def vectors(self) -> np.ndarray:
        """All (D+1)*D vectors as a read-only (D+1)*D x D array, basis-major
        (row b*D + t is vector t of basis b), built on each call."""
        d = self.dim
        out = np.empty((d + 1, d, d), dtype=complex)
        for b in range(d + 1):
            out[b] = self.basis(b)
        out.setflags(write=False)
        return out.reshape(-1, d)


def _read_only_copy(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _is_unitary(u: np.ndarray) -> bool:
    return np.abs(u @ u.conj().T - np.eye(len(u))).max() <= EXACT_TOL


def _check_character_table(chi: np.ndarray) -> None:
    """Raise unless conj(chi_s) * chi_t * sqrt(D) is a row of chi for all s, t.

    For each s, every product row is matched to the row of chi with the
    nearest projection onto a fixed generic probe vector, then compared
    entry by entry, so one row s costs O(D^2).  A wrong match can only
    reject a table, never accept one.
    """
    d = len(chi)
    root = np.sqrt(d)
    rng = np.random.default_rng(0)
    probe = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    keys = chi @ probe
    for s in range(d):
        prod = chi[s].conj() * chi * root
        match = np.abs((prod @ probe)[:, None] - keys[None, :]).argmin(axis=1)
        if np.abs(prod - chi[match]).max() > EXACT_TOL:
            raise ValueError("basis 1 is not a character table: "
                             f"conj(row {s}) * row t * sqrt(D) is not a row of it")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _mub_odd_prime(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(roots, f, c) of the Weyl-Heisenberg family omega^(j l^2 + t l)."""
    l = np.arange(p)
    return np.exp(2j * np.pi / p) ** l, np.outer(l, l**2), np.outer(l, l)


def _mub_power_of_two(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(roots, f, c) of the GR(4, m) construction.

    Its vectors are v_{a,b}[x] = i^(Tr(T(ax)) + 2 tr(bx))/sqrt(D), where
    a, b, x range over GF(2^m) and T is the Teichmueller lift into GR(4, m).
    The sum rule T(a) + T(b) = T(a+b) + 2 T(sqrt(ab)) gives
    Tr(T(y)) = tr(y) + 2 Q(y) mod 4 with Q(y) = sum_{i<j} y^(2^i) y^(2^j) in
    GF(2), so every phase is read from GF(2^m) arithmetic: with y = g^e and
    g = x primitive, y^(2^i) = g^(e 2^i) and both tr and Q are sums of stored
    powers of g.
    """
    if m not in _GF2_POLYS:
        raise NotImplementedError(f"no stored primitive polynomial of degree {m}")
    poly = _GF2_POLYS[m]
    d = 2**m
    powers = np.empty(d - 1, dtype=np.int64)
    cur = 1
    for e in range(d - 1):
        powers[e] = cur
        cur <<= 1
        if cur >> m & 1:
            cur ^= poly
    if cur != 1 or len(set(powers.tolist())) != d - 1:
        raise AssertionError("x does not have order 2^m - 1")

    # frob[i, e] is the exponent of (g^e)^(2^i)
    frob = (np.arange(d - 1)[None, :] << np.arange(m)[:, None]) % (d - 1)
    tr = np.bitwise_xor.reduce(powers[frob], axis=0)
    i, j = np.triu_indices(m, 1)
    q = np.bitwise_xor.reduce(powers[(frob[i] + frob[j]) % (d - 1)], axis=0)
    if np.any(q > 1):
        raise AssertionError("Q(y) is not in GF(2)")

    # element 0 is zero and element k >= 1 is g^(k-1); the nonzero elements
    # form a cyclic group of order D-1, so element i times element j is
    # element 1 + (i+j-2) mod (D-1) for i, j >= 1 and 0 otherwise
    tr_t = np.concatenate(([0], tr))
    trgr_t = np.concatenate(([0], tr + 2 * q))
    k = np.arange(d)
    idx = 1 + (k[:, None] + k[None, :] - 2) % (d - 1)
    idx[0, :] = idx[:, 0] = 0
    return 1j ** np.arange(4), trgr_t[idx], 2 * tr_t[idx]


# typed: a float or bool dim misses the cache and reaches the check
@functools.lru_cache(maxsize=None, typed=True)
def mub_family(dim: int) -> MubFamily:
    """Maximal family of dim+1 mutually unbiased bases in C^dim.

    Supported dimensions: odd primes and powers of two.  Other dimensions
    raise NotImplementedError, and a dim that is not a plain int raises
    ValueError.  Each family is built and validated once per process; later
    calls return the same read-only instance.
    """
    _check_int("dim", dim)
    if dim >= 2 and dim & (dim - 1) == 0:
        return MubFamily(dim, *_mub_power_of_two(dim.bit_length() - 1))
    if dim > 2 and _is_prime(dim):
        return MubFamily(dim, *_mub_odd_prime(dim))
    raise NotImplementedError(
        f"MUB family for dimension {dim} not implemented; "
        "supported families: odd primes and powers of two"
    )


def _default_probes(dim: int) -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    probes = [np.eye(dim, dtype=complex)]
    proj0 = np.zeros((dim, dim), dtype=complex)
    proj0[0, 0] = 1.0
    probes.append(proj0)
    for _ in range(20):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        probes.append(0.5 * (g + g.conj().T))
    return probes


def near_isotropy_defect(family) -> float:
    """Largest operator-norm violation of the 2-design identity.

    For a maximal MUB family, sum_v |v><v| Tr(|v><v| A) = A + Tr(A) 1 for
    every Hermitian A; the defect is the worst deviation over one fixed probe
    set: the identity, |0><0| and 20 random Hermitian matrices from seed 7.
    Accepts a family or a raw (n_vectors, D) stack, so incomplete designs
    can be probed too.
    """
    vecs = family.vectors() if isinstance(family, MubFamily) else np.asarray(family)
    dim = vecs.shape[1]
    worst = 0.0
    for a in _default_probes(dim):
        coeff = np.einsum("vi,ij,vj->v", vecs.conj(), a, vecs)
        lhs = (vecs.T * coeff) @ vecs.conj()
        rhs = a + np.trace(a) * np.eye(dim)
        dev = np.abs(np.linalg.eigvalsh(0.5 * (lhs - rhs + (lhs - rhs).conj().T))).max()
        worst = max(worst, float(dev))
    return worst
