"""Reference forms the library's fast kernels are tested against.

``maximally_entangled_state``, ``apply_kraus`` and ``apply_via_choi`` state
the Choi convention directly: the maximally entangled pair |omega><omega|,
the channel action sum_i K_i rho K_i^dag, and the same action read back
from the Choi matrix through ``tr_ancilla``, the partial trace over the
second factor (the library's ``partial_trace`` is Tr_s only).  The library
never applies a channel to a state, so these serve the convention tests and
the Born spot checks.

``proctomo.simulate`` and ``proctomo.estimators`` run the Pauli contractions
in chunks and the sampling path in place; ``proctomo.projections`` adds the
trace-preserving correction through a reshape view.  The functions here are
the straightforward forms those replaced.  They do the same per-element
arithmetic, so the tests compare against them with ``np.array_equal``.

``mub_outcome_probabilities``, ``mub_direct_probabilities``,
``ls_scenario3_matrix`` and ``ls_scenario4_matrix`` are the whole-stack
``einsum`` forms of the MUB Born kernels and of the MUB estimators, which
the library runs through BLAS products.  Their sums run in another order, so
the tests compare against them within a relative tolerance.

``mub_outcome_probabilities_by_basis`` and ``ls_scenario3_by_basis`` are
the scenario-3 kernels' loops over the whole basis stack, which the library
replaced by bases built one at a time from the family's phase tables; the
tests compare against them with ``np.array_equal``.

``pauli_projector``, ``all_settings``, ``setting_index`` and
``born_probabilities`` (one Born-table row) serve the dense spot checks.

``ls_cell_operators`` writes each scenario's LS estimator as
Phi_hat = sum_c f_c M_c + C with one dense operator per table cell, and
``ls_second_moment`` gives the estimate's mean squared Frobenius error from
those operators and the Born table in closed form; the sampled spread is
tested against it.

``proctomo.designs`` builds the D = 2^m MUB families from GF(2^m) arithmetic
alone; the GF(2^m) and GR(4, m) products below build them in the ring itself,
for a test oracle that shares no arithmetic with the library.  ``MubFamily``
validates a family through its character table; ``pairwise_unbiasedness_defect``
is the check by pairs of bases that this replaced.
"""

import itertools

import numpy as np

from proctomo.channels import DensityMatrix, _hermitize, partial_trace, system_dim
from proctomo import simulate
from proctomo.designs import AXES, PAULI_VECTORS, mub_family
from proctomo.simulate import FrequencyTable, _stream, setting_count


def maximally_entangled_state(d):
    """Rank-one projector onto (1/sqrt(d)) sum_q |q> (x) |q>."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    omega = np.zeros(d * d, dtype=complex)
    omega[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return DensityMatrix(np.outer(omega, omega.conj()))


def apply_kraus(kraus, rho):
    """Direct channel action sum_i K_i rho K_i^dag."""
    if kraus.dim != rho.matrix.shape[0]:
        raise ValueError("dimension mismatch")
    out = sum(k @ rho.matrix @ k.conj().T for k in kraus.operators)
    return DensityMatrix(_hermitize(out))


def tr_ancilla(mat):
    """Tr_a: partial trace of a matrix on C^d (x) C^d over its second factor."""
    d = system_dim(mat.shape[0])
    return np.einsum("iaja->ij", np.asarray(mat).reshape(d, d, d, d))


def apply_via_choi(choi, rho):
    """Channel action through the Choi matrix: C(rho) = d Tr_a(Phi (1 (x) rho^T))."""
    d = choi.dim
    if rho.matrix.shape[0] != d:
        raise ValueError("dimension mismatch")
    prod = choi.matrix @ np.kron(np.eye(d), rho.matrix.T)
    out = d * tr_ancilla(prod)
    return DensityMatrix(_hermitize(out))


def pauli_projector(setting, outcome):
    """Rank-one product projector for a Pauli setting and outcome bit string."""
    if len(setting) != len(outcome):
        raise ValueError("setting and outcome lengths differ")
    vec = np.array([1.0 + 0j])
    for axis, bit in zip(setting, outcome):
        vec = np.kron(vec, PAULI_VECTORS[:, 2 * AXES.index(axis) + int(bit)])
    return np.outer(vec, vec.conj())


def all_settings(n):
    """All 3^n Pauli settings on n qubits, in base-3 index order."""
    return itertools.product(AXES, repeat=n)


def setting_index(setting):
    idx = 0
    for axis in setting:
        idx = 3 * idx + AXES.index(axis)
    return idx


def born_probabilities(choi, scenario, index=0):
    """Outcome distribution for one setting (scenarios 1, 2), one input
    (scenario 4), or the single global setting (scenario 3).

    Scenario 2 settings are the (a, b, q) triples with a major and q minor.
    """
    n_settings = setting_count(scenario, choi.dim)
    return simulate.probability_array(choi, scenario).reshape(n_settings, -1)[index]


def pauli_joint_probabilities(phi, n):
    """Tr(Phi P^s_o) as a (3^n, 2^n) array, contracted on the whole tensor."""
    w = np.einsum("ru,cu->urc", PAULI_VECTORS.conj(), PAULI_VECTORS)
    t = np.asarray(phi, dtype=complex).reshape((2,) * (2 * n))
    for i in range(n):
        t = np.tensordot(t, w, axes=([i, n], [1, 2]))
        t = np.moveaxis(t, -1, i)
    t = t.real.reshape((3, 2) * n)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.ascontiguousarray(t.transpose(perm)).reshape(3**n, 2**n)


def pauli_assemble(freqs, n):
    """sum_{s,o} f[s,o] (x)_i (3 |o_i,s_i><o_i,s_i| - 1), on the whole tensor."""
    v = PAULI_VECTORS
    ops = 3.0 * np.einsum("ru,cu->urc", v, v.conj()) - np.eye(2)
    t = np.asarray(freqs, dtype=complex).reshape((3,) * n + (2,) * n)
    perm = [ax for i in range(n) for ax in (i, n + i)]
    t = t.transpose(perm).reshape((6,) * n)
    for _ in range(n):
        t = np.tensordot(t, ops, axes=([0], [0]))
    rows = list(range(0, 2 * n, 2))
    cols = list(range(1, 2 * n, 2))
    return np.ascontiguousarray(t.transpose(rows + cols)).reshape(2**n, 2**n)


def _clamp_rows(p):
    q = np.clip(p, 0.0, None)
    return q / q.sum(axis=-1, keepdims=True)


def probability_array(choi, scenario):
    """Born table of a Pauli scenario (1 or 2) from the whole-array kernel."""
    d = choi.dim
    k = d.bit_length() - 1
    joint = pauli_joint_probabilities(choi.matrix, 2 * k)
    if scenario == 1:
        return _clamp_rows(joint)
    t = joint.reshape(3**k, 3**k, 2**k, 2**k)
    return _clamp_rows(np.ascontiguousarray(d * t.transpose(1, 0, 3, 2)))


def sample(choi, scenario, plan):
    """``simulate.sample`` for scenarios 1 and 2 with a fresh array per step
    and all rows drawn in one multinomial call."""
    d = choi.dim
    probs = probability_array(choi, scenario)
    n_settings = setting_count(scenario, d)
    rows = probs.reshape(n_settings, -1)
    nu = plan.n_shots / n_settings
    rng = _stream(plan.seed, scenario, n_settings)
    if plan.scheme == "fixed":
        shots = np.full(n_settings, plan.n_shots // n_settings)
    else:
        shots = rng.multinomial(plan.n_shots, np.full(n_settings, 1 / n_settings))
    counts = rng.multinomial(shots, rows)
    return FrequencyTable(scenario, d, counts.reshape(probs.shape) / nu)


def _pauli_cell_operators(n):
    """(x)_i (3 |o_i,s_i><o_i,s_i| - 1) on n qubits, as a (3^n, 2^n, 2^n,
    2^n) stack in table order [setting s, outcome o]."""
    single = {(axis, bit): 3 * pauli_projector((axis,), (bit,)) - np.eye(2)
              for axis in AXES for bit in (0, 1)}
    ops = []
    for setting in all_settings(n):
        for bits in itertools.product((0, 1), repeat=n):
            m = np.ones((1, 1))
            for axis, bit in zip(setting, bits):
                m = np.kron(m, single[axis, bit])
            ops.append(m)
    return np.array(ops).reshape(3**n, 2**n, 2**n, 2**n)


def ls_cell_operators(scenario, d):
    """The LS estimator as Phi_hat = sum_c f_c M_c + C over the cells c of a
    frequency table, written from the scenario's estimator formula.

    Returns (M, C): M has shape (cells, d^2, d^2) in table order, C is
    (d^2, d^2).  Built cell by cell with dense Kronecker products; shares no
    code with ``proctomo.estimators``.
    """
    n = d * d
    if scenario == 1:
        k = d.bit_length() - 1
        ops = _pauli_cell_operators(2 * k).reshape(-1, n, n) / 9**k
        return ops, np.zeros((n, n))
    if scenario == 2:
        k = d.bit_length() - 1
        ops = _pauli_cell_operators(k)  # [s, o, i, j]
        # cell [a, b, q, p]: M^b_p on the system, M^a_q on the ancilla
        cells = np.einsum("bpij,aqkl->abqpikjl", ops, ops)
        return cells.reshape(-1, n, n) / (9**k * d), np.zeros((n, n))
    if scenario == 3:
        vecs = mub_family(n).vectors()
        ops = (n + 1) * np.einsum("vi,vj->vij", vecs, vecs.conj())
        return ops, -np.eye(n)
    if scenario == 4:
        vecs = mub_family(d).vectors()
        projs = np.einsum("vi,vj->vij", vecs, vecs.conj())
        eye = np.eye(d)
        # cell [input k, outcome l]: P_l on the system, P_k on the ancilla
        # (input k is (|v_k><v_k|)^T, so its Choi-state partner is P_k)
        cells = [(d + 1) / d * np.kron(p_l, p_k)
                 - (np.kron(p_l, eye) + np.kron(eye, p_k)) / d
                 for p_k in projs for p_l in projs]
        return np.array(cells), np.eye(n)
    raise ValueError(f"unknown scenario {scenario}")


def ls_second_moment(choi, scenario, plan):
    """E ||Phi_hat - Phi||_F^2 of the LS estimate from one table drawn under
    ``plan``, in closed form from the Born table and the cell operators.

    The counts n of the cells of one independent multinomial block b of
    N_b shots, with f = n / nu, contribute
    N_b (sum_c p_{c|b} ||M_c / nu||^2 - ||sum_c p_{c|b} M_c / nu||^2).
    The fixed scheme has one block of nu shots per setting; the random
    scheme has one block of N shots over the joint (setting, outcome)
    distribution p_{s,o} / n_settings.
    """
    n_settings = setting_count(scenario, choi.dim)
    nu = plan.n_shots / n_settings
    rows = simulate.probability_array(choi, scenario).reshape(n_settings, -1)
    ops, _ = ls_cell_operators(scenario, choi.dim)
    vecs = ops.reshape(n_settings, rows.shape[1], -1) / nu
    if plan.scheme == "fixed":
        blocks = [(nu, rows[s], vecs[s]) for s in range(n_settings)]
    else:
        blocks = [(plan.n_shots, rows.reshape(-1) / n_settings,
                   vecs.reshape(-1, vecs.shape[-1]))]
    total = 0.0
    for shots, p, v in blocks:
        mean = p @ v
        total += shots * (p @ (np.abs(v) ** 2).sum(axis=1) - np.vdot(mean, mean).real)
    return total


def ls_matrix(table):
    """LS Choi matrix of a Pauli table (scenarios 1 and 2), the estimator's
    whole-array form including the final Hermitian symmetrization."""
    k = table.k
    if table.scenario == 1:
        m = pauli_assemble(table.values, 2 * k) / 3 ** (2 * k)
    else:
        joint = table.values.transpose(1, 0, 3, 2).reshape(3 ** (2 * k), 4**k)
        m = pauli_assemble(joint, 2 * k) / (3 ** (2 * k) * 2**k)
    return 0.5 * (m + m.conj().T)


def mub_outcome_probabilities(phi, d):
    """Scenario-3 distribution over the d^2(d^2+1) MUB outcomes."""
    vecs = mub_family(d * d).vectors()
    p = np.einsum("vi,ij,vj->v", vecs.conj(), phi, vecs).real
    return p / (d * d + 1)


def mub_outcome_probabilities_by_basis(phi, d):
    """The scenario-3 Born table as a loop over the whole (D+1) x D x D
    stack, one D x D product per basis: the library's per-basis arithmetic
    on bases read from ``MubFamily.vectors``."""
    bases = mub_family(d * d).vectors().reshape(d * d + 1, d * d, d * d)
    p = np.empty(bases.shape[:2])
    for a, basis in enumerate(bases):
        p[a] = np.einsum("ti,ti->t", basis.conj() @ phi, basis).real
    p /= d * d + 1
    return p.reshape(-1)


def mub_direct_probabilities(phi, d):
    """Scenario-4 distributions p[input k, outcome l]."""
    vecs = mub_family(d).vectors()
    phi4 = np.asarray(phi).reshape(d, d, d, d)
    amp = np.einsum("li,kj,ijab,la,kb->kl", vecs.conj(), vecs.conj(), phi4, vecs, vecs)
    return amp.real * d / (d + 1)


def ls_scenario3_matrix(table):
    """Scenario-3 LS matrix (d^2+1) sum_i f_i |v_i><v_i| - 1 over the whole
    vector stack, before the final Hermitian symmetrization."""
    d = table.dim
    vecs = mub_family(d * d).vectors()
    return (d * d + 1) * (vecs.T * table.values) @ vecs.conj() - np.eye(d * d)


def ls_scenario3_by_basis(table):
    """Scenario-3 LS matrix as a loop over the whole (D+1) x D x D stack,
    the library's per-basis arithmetic including the final Hermitian
    symmetrization."""
    d = table.dim
    bases = mub_family(d * d).vectors().reshape(d * d + 1, d * d, d * d)
    mat = np.zeros((d * d, d * d), dtype=complex)
    for basis, f in zip(bases, table.values.reshape(bases.shape[:2])):
        mat += (basis.T * f) @ basis.conj()
    mat *= d * d + 1
    mat -= np.eye(d * d)
    return 0.5 * (mat + mat.conj().T)


def ls_scenario4_matrix(table):
    """Scenario-4 LS matrix assembled by ``einsum`` chains over the projector
    stack, before the final Hermitian symmetrization."""
    d = table.dim
    vecs = mub_family(d).vectors()
    f = table.values  # [input k, outcome l]
    projs = np.einsum("ki,kj->kij", vecs, vecs.conj())
    # sum_l f^k_l P_l for each input k, then tensor against P_k
    a_stack = np.einsum("kl,lij->kij", f, projs)
    term1 = np.einsum("kab,kcd->acbd", a_stack, projs).reshape(d * d, d * d)
    p_tot = np.einsum("l,lij->ij", f.sum(axis=0), projs)
    q_tot = np.einsum("k,kij->ij", f.sum(axis=1), projs)
    eye = np.eye(d)
    return ((d + 1) / d * term1
            - (np.kron(p_tot, eye) + np.kron(eye, q_tot)) / d
            + np.eye(d * d))


def proj_tp(x):
    """Frobenius projection onto {X : Tr_s(X) = 1/d}, through np.kron."""
    d = round(x.shape[0] ** 0.5)
    corr = np.eye(d) / d - partial_trace(x)
    return x + np.kron(np.eye(d), corr) / d


def proj_tp_linear(x):
    """Projection onto {X : Tr_s(X) = 0}, through np.kron."""
    d = round(x.shape[0] ** 0.5)
    return x - np.kron(np.eye(d), partial_trace(x)) / d


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


def pairwise_unbiasedness_defect(bases):
    """max | |<u|v>|^2 - 1/D | over u, v in two different bases, one D x D
    product per pair of bases."""
    n, d, _ = bases.shape
    worst = 0.0
    for b1 in range(n):
        for b2 in range(b1 + 1, n):
            ovl = np.abs(bases[b1] @ bases[b2].conj().T) ** 2
            worst = max(worst, float(np.abs(ovl - 1.0 / d).max()))
    return worst
