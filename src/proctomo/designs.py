"""Measurement resources: Pauli product bases, mutually unbiased bases, POVMs.

Pauli conventions: |0,s> / |1,s> are the +1 / -1 eigenvectors of sigma_s, so
|0,z> = |0>, |0,x> = |+>, |0,y> = (|0> + i|1>)/sqrt(2).  Measurement settings
are tuples over the axes ('x', 'y', 'z'); setting indices enumerate them in
base 3 with that digit order.

MUB families exist here for D an odd prime (Weyl-Heisenberg quadratic phases
omega^(j l^2 + t l)) and for D = 2^m (Galois-ring GR(4, m) trace construction
over the Teichmueller set).  The hard-coded primitive polynomials over GF(2)
are (by degree): x+1, x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1, x^6+x+1,
x^7+x+1, x^8+x^4+x^3+x^2+1.  Basis 0 is always the computational basis.

``mub_family`` builds each dimension's family once per process and returns
the same read-only :class:`MubFamily` on every later call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .channels import DensityMatrix

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
    "Povm",
    "MubFamily",
    "pauli_eigenvector",
    "pauli_basis_matrix",
    "pauli_projector",
    "pauli_operator_stack",
    "all_settings",
    "setting_index",
    "setting_from_index",
    "mub_family",
    "near_isotropy_defect",
    "scenario_povm",
    "scenario_inputs",
    "save_mub_family",
    "load_mub_family",
]


def pauli_eigenvector(axis: str, outcome: int) -> np.ndarray:
    """Single-qubit eigenvector |outcome, axis>."""
    return _EIG[axis][:, outcome].copy()


def pauli_basis_matrix(axis: str) -> np.ndarray:
    """2x2 unitary whose columns are |0,axis>, |1,axis>."""
    return _EIG[axis].copy()


def pauli_projector(setting: Sequence[str], outcome: Sequence[int]) -> np.ndarray:
    """Rank-one product projector for a Pauli setting and outcome bit string."""
    if len(setting) != len(outcome):
        raise ValueError("setting and outcome lengths differ")
    vec = np.array([1.0 + 0j])
    for axis, bit in zip(setting, outcome):
        vec = np.kron(vec, pauli_eigenvector(axis, int(bit)))
    return np.outer(vec, vec.conj())


def pauli_operator_stack() -> np.ndarray:
    """Stack of the six operators 3|o,s><o,s| - 1, indexed by u = 2*axis + o.

    These are the single-qubit tensor factors of the Pauli least-squares
    estimators; the same index layout is used by the joint-probability and
    estimator-assembly kernels.
    """
    out = np.empty((6, 2, 2), dtype=complex)
    for s, axis in enumerate(AXES):
        for o in (0, 1):
            v = pauli_eigenvector(axis, o)
            out[2 * s + o] = 3.0 * np.outer(v, v.conj()) - np.eye(2)
    return out


def all_settings(n: int) -> Iterable[tuple[str, ...]]:
    """All 3^n Pauli settings on n qubits, in base-3 index order."""
    return itertools.product(AXES, repeat=n)


def setting_index(setting: Sequence[str]) -> int:
    idx = 0
    for axis in setting:
        idx = 3 * idx + AXES.index(axis)
    return idx


def setting_from_index(idx: int, n: int) -> tuple[str, ...]:
    digits = []
    for _ in range(n):
        digits.append(AXES[idx % 3])
        idx //= 3
    return tuple(reversed(digits))


@dataclass(frozen=True)
class Povm:
    """Positive operator valued measure: PSD elements resolving the identity."""

    elements: tuple
    labels: tuple

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        dim = elems[0].shape[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for e in elems:
            lam_min = np.linalg.eigvalsh(0.5 * (e + e.conj().T)).min()
            if lam_min < -1e-12:
                raise ValueError(f"POVM element has eigenvalue {lam_min:.3e}")
            acc += e
        if np.abs(acc - np.eye(dim)).max() > 1e-10:
            raise ValueError("POVM elements do not resolve the identity")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class MubFamily:
    """D+1 mutually unbiased orthonormal bases of C^D.

    ``bases[b, t]`` is the t-th unit vector of basis b; basis 0 is the
    computational basis.  ``bases`` is a private read-only copy of the array
    passed in, so one family can be shared between callers and threads.
    """

    dim: int
    bases: np.ndarray

    def __post_init__(self):
        bases = np.array(self.bases, dtype=complex)
        bases.setflags(write=False)
        object.__setattr__(self, "bases", bases)
        d = self.dim
        if self.bases.shape != (d + 1, d, d):
            raise ValueError("expected (D+1, D, D) array of basis vectors")
        for b in range(d + 1):
            gram = self.bases[b] @ self.bases[b].conj().T
            if np.abs(gram - np.eye(d)).max() > 1e-12:
                raise ValueError(f"basis {b} is not orthonormal")
        for b1 in range(d + 1):
            for b2 in range(b1 + 1, d + 1):
                ovl = np.abs(self.bases[b1] @ self.bases[b2].conj().T) ** 2
                if np.abs(ovl - 1.0 / d).max() > 1e-10:
                    raise ValueError(f"bases {b1}, {b2} are not unbiased")

    def vectors(self) -> np.ndarray:
        """All (D+1)*D vectors stacked, basis-major."""
        return self.bases.reshape(-1, self.dim)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _mub_odd_prime(p: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / p)
    l = np.arange(p)
    bases = np.empty((p + 1, p, p), dtype=complex)
    bases[0] = np.eye(p)
    for j in range(p):
        # vector t of basis j+1 has components omega^(j l^2 + t l)/sqrt(p)
        phase = (j * l**2)[None, :] + np.outer(l, l)
        bases[j + 1] = omega ** np.mod(phase, p) / np.sqrt(p)
    return bases


# -- GF(2^m) helpers (elements as ints, coefficient of x^j at bit j) --------


def _gf2_mul(a: int, b: int, poly: int, m: int) -> int:
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= poly
    return res


def _gf2_trace(a: int, poly: int, m: int) -> int:
    acc = 0
    cur = a
    for _ in range(m):
        acc ^= cur
        cur = _gf2_mul(cur, cur, poly, m)
    return acc & 1


# -- GR(4, m) helpers (elements as length-m coefficient arrays mod 4) -------


def _hensel_lift(poly: int, m: int) -> np.ndarray:
    """Graeffe lift of a binary irreducible to Z_4: h(x^2) = +-(e^2 - o^2)."""
    coeffs = np.array([(poly >> j) & 1 for j in range(m + 1)], dtype=np.int64)
    even = np.where(np.arange(m + 1) % 2 == 0, coeffs, 0)
    odd = np.where(np.arange(m + 1) % 2 == 1, coeffs, 0)
    sq = np.convolve(even, even) - np.convolve(odd, odd)
    h = sq[::2] % 4
    if m % 2 == 1:
        h = (-h) % 4
    if h[m] != 1:
        raise AssertionError("Hensel lift is not monic")
    return h.astype(np.int64)


def _gr_mul(u: np.ndarray, v: np.ndarray, h: np.ndarray, m: int) -> np.ndarray:
    prod = np.convolve(u, v) % 4
    for deg in range(len(prod) - 1, m - 1, -1):
        c = prod[deg]
        if c:
            prod[deg - m : deg + 1] = (prod[deg - m : deg + 1] - c * h) % 4
    out = np.zeros(m, dtype=np.int64)
    out[: len(prod[:m])] = prod[:m]
    return out


def _mub_power_of_two(m: int) -> np.ndarray:
    """GR(4, m) construction: v_{a,b}[x] = i^tr((a + 2b) x)/sqrt(D).

    a, b, x range over the Teichmueller set T = {0} u {xi^j}; the trace is
    Z_4-linear, so tr((a+2b)x) = tr(ax) + 2 tr_gf(b x mod 2) and both parts
    are gathered from per-element traces through a product-index table.
    """
    if m not in _GF2_POLYS:
        raise NotImplementedError(f"no stored primitive polynomial of degree {m}")
    poly = _GF2_POLYS[m]
    d = 2**m
    h = _hensel_lift(poly, m)

    teich = [np.zeros(m, dtype=np.int64)]
    xi = np.zeros(m, dtype=np.int64)
    if m == 1:
        # GR(4,1) = Z_4, Teichmueller set {0, 1}
        xi[0] = 1
    else:
        xi[1] = 1
    cur = np.zeros(m, dtype=np.int64)
    cur[0] = 1
    for _ in range(d - 1):
        teich.append(cur.copy())
        cur = _gr_mul(cur, xi, h, m)
    if np.any(cur != teich[1]):
        raise AssertionError("xi does not have order 2^m - 1")
    teich = np.stack(teich)

    def gr_trace(y: np.ndarray) -> int:
        # two-adic split y = a + 2b, a = y^(2^m), then sum the Frobenius orbit
        a = y.copy()
        for _ in range(m):
            a = _gr_mul(a, a, h, m)
        twob = (y - a) % 4
        if np.any(twob % 2):
            raise AssertionError("two-adic split failed")
        b_bits = int(sum(1 << j for j in range(m) if (twob[j] // 2) % 2))
        acc = np.zeros(m, dtype=np.int64)
        cur = a
        for _ in range(m):
            acc = (acc + cur) % 4
            cur = _gr_mul(cur, cur, h, m)
        if np.any(acc[1:]):
            raise AssertionError("trace is not scalar")
        return int((acc[0] + 2 * _gf2_trace(b_bits, poly, m)) % 4)

    # T \ {0} = <xi> is cyclic of order D-1, so teich[i] teich[j] is
    # teich[1 + (i+j-2) mod (D-1)] for i, j >= 1 and 0 otherwise; reduction
    # mod 2 is a ring map, so the bit patterns multiply by the same table.
    # One trace per Teichmueller element then fills both D x D tables.
    k = np.arange(d)
    idx = 1 + (k[:, None] + k[None, :] - 2) % (d - 1)
    idx[0, :] = idx[:, 0] = 0
    bits = [int(sum(1 << j for j in range(m) if t[j] % 2)) for t in teich]
    tr_t = np.array([gr_trace(t) for t in teich], dtype=np.int64)
    tr2_t = np.array([_gf2_trace(b, poly, m) for b in bits], dtype=np.int64)
    tr_ax = tr_t[idx]
    tr2_bx = tr2_t[idx]

    phase = np.mod(tr_ax[:, None, :] + 2 * tr2_bx[None, :, :], 4)
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    bases[1:] = (1j ** phase) / np.sqrt(d)
    return bases


@functools.lru_cache(maxsize=None)
def mub_family(dim: int) -> MubFamily:
    """Maximal family of dim+1 mutually unbiased bases in C^dim.

    Supported dimensions: odd primes and powers of two.  Other dimensions
    raise NotImplementedError.  Each family is built and validated once per
    process; later calls return the same read-only instance.
    """
    if dim >= 2 and dim & (dim - 1) == 0:
        return MubFamily(dim, _mub_power_of_two(dim.bit_length() - 1))
    if dim > 2 and _is_prime(dim):
        return MubFamily(dim, _mub_odd_prime(dim))
    raise NotImplementedError(
        f"MUB family for dimension {dim} not implemented; "
        "supported families: odd primes and powers of two"
    )


def _default_probes(dim: int, n_random: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    probes = [np.eye(dim, dtype=complex)]
    proj0 = np.zeros((dim, dim), dtype=complex)
    proj0[0, 0] = 1.0
    probes.append(proj0)
    for _ in range(n_random):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        probes.append(0.5 * (g + g.conj().T))
    return probes


def near_isotropy_defect(family, n_random: int = 20, seed: int = 7) -> float:
    """Largest operator-norm violation of the 2-design identity.

    For a maximal MUB family, sum_v |v><v| Tr(|v><v| A) = A + Tr(A) 1 for
    every Hermitian A; the defect is the worst deviation over a probe set of
    the identity, |0><0| and ``n_random`` seeded random Hermitian matrices.
    Accepts a family or a raw (n_vectors, D) stack, so incomplete designs
    can be probed too.
    """
    vecs = family.vectors() if isinstance(family, MubFamily) else np.asarray(family)
    dim = vecs.shape[1]
    worst = 0.0
    for a in _default_probes(dim, n_random, seed):
        coeff = np.einsum("vi,ij,vj->v", vecs.conj(), a, vecs)
        lhs = (vecs.T * coeff) @ vecs.conj()
        rhs = a + np.trace(a) * np.eye(dim)
        dev = np.abs(np.linalg.eigvalsh(0.5 * (lhs - rhs + (lhs - rhs).conj().T))).max()
        worst = max(worst, float(dev))
    return worst


def scenario_povm(scenario: int, k: Optional[int] = None, d: Optional[int] = None,
                  setting: Optional[Sequence[str]] = None) -> Povm:
    """POVM measured in one scenario.

    Scenario 1 (2k-qubit Pauli) and 2 (k-qubit Pauli) need a setting;
    scenario 3 returns the d^2(d^2+1)-outcome MUB POVM on the joint space;
    scenario 4 the d(d+1)-outcome MUB POVM on the system alone.
    """
    if scenario in (1, 2):
        if k is None or setting is None:
            raise ValueError("Pauli scenarios need k and a setting")
        n = 2 * k if scenario == 1 else k
        if len(setting) != n:
            raise ValueError(f"setting must have length {n}")
        elems = [pauli_projector(setting, bits)
                 for bits in itertools.product((0, 1), repeat=n)]
        labels = tuple(itertools.product((0, 1), repeat=n))
        return Povm(tuple(elems), labels)
    if scenario == 3:
        if d is None:
            raise ValueError("scenario 3 needs d")
        fam = mub_family(d * d)
        vecs = fam.vectors()
        elems = [np.outer(v, v.conj()) / (d * d + 1) for v in vecs]
        return Povm(tuple(elems), tuple(range(len(elems))))
    if scenario == 4:
        if d is None:
            raise ValueError("scenario 4 needs d")
        fam = mub_family(d)
        vecs = fam.vectors()
        elems = [np.outer(v, v.conj()) / (d + 1) for v in vecs]
        return Povm(tuple(elems), tuple(range(len(elems))))
    raise ValueError(f"unknown scenario {scenario}")


def scenario_inputs(scenario: int, k: Optional[int] = None,
                    d: Optional[int] = None) -> list[DensityMatrix]:
    """Input states prepared in the ancilla-free scenarios (2 and 4).

    Scenario 2: the 3^k 2^k transposed Pauli product projectors, ordered with
    the basis index (base 3) major and the eigenvalue label (base 2) minor.
    Scenario 4: the d(d+1) transposed MUB projectors, basis-major.  The same
    family serves as inputs and measurements.
    """
    if scenario == 2:
        if k is None:
            raise ValueError("scenario 2 needs k")
        states = []
        for setting in all_settings(k):
            for bits in itertools.product((0, 1), repeat=k):
                proj = pauli_projector(setting, bits)
                states.append(DensityMatrix(proj.T.copy()))
        return states
    if scenario == 4:
        if d is None:
            raise ValueError("scenario 4 needs d")
        fam = mub_family(d)
        return [DensityMatrix(np.outer(v, v.conj()).T.copy()) for v in fam.vectors()]
    raise ValueError(f"scenario {scenario} has no prepared input states")


def save_mub_family(family: MubFamily, path) -> None:
    """Serialize a family to .npz with keys 'dim' and 'bases'."""
    np.savez(path, dim=np.array(family.dim), bases=family.bases)


def load_mub_family(path) -> MubFamily:
    with np.load(path) as data:
        dim, bases = int(data["dim"]), data["bases"]
    return MubFamily(dim, bases)
