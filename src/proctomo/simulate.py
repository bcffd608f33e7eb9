"""Born probabilities and multinomial sampling for the four scenarios.

Layout of ``FrequencyTable(scenario, d, values).values``, setting axes first
and the outcome axis last, refused in any other shape when a table is built:

1. ancilla-assisted Pauli:  shape (3^2k, 2^2k), [setting, outcome]
2. direct Pauli:            shape (3^k, 3^k, 2^k, 2^k), [a, b, q, p] with
   input basis a / label q and measurement basis b / outcome p
3. ancilla-assisted MUB:    shape (d^2 (d^2+1),), one global distribution
4. direct MUB:              shape (d(d+1), d(d+1)), [input, outcome]

Inputs and measurements, with C the channel: scenarios 1 and 3 measure the
joint output in the 2k-qubit Pauli product bases, or with the POVM
|v><v| / (d^2+1) over the MUB vectors v of C^(d^2).  Scenario 2 prepares
input (a, q), the transposed projector (P^a_q)^T of Pauli setting a and label
q (a major, q minor), and outcome p of measurement b has probability
Tr(P^b_p C((P^a_q)^T)).  Scenario 4 prepares input k, (|v_k><v_k|)^T, and
outcome l has probability <v_l| C((|v_k><v_k|)^T) |v_l> / (d+1); one MUB
family of C^d, basis-major, serves as inputs and measurement.

Frequencies are counts divided by nu, the (mean) number of repetitions per
setting, ``SamplingPlan.shots_per_setting``; the plan is the record of the
draw.  In the fixed scheme every setting receives exactly nu shots and each
per-setting row sums to one; in the random scheme settings are drawn
uniformly and only the expectation of each row sum is one.

Sampling is reproducible: a table is drawn from one Philox stream keyed by
(seed, scenario, setting count), under either scheme: first the shots per
setting (fixed, or one multinomial draw over uniform settings), then each
setting's counts as one multinomial draw over its row of the Born table.

Each scenario's measurement operators E_cell are stated here alone, run both
ways: ``_born`` and its adjoint f -> sum_cell f_cell E_cell (``_pauli_fold``
over ``_BORN_OPS`` or its conj()^T, ``_mub_outcome_adjoint``,
``_mub_direct_adjoint``).  ``estimators`` adds the affine corrections that
make these the LS estimates, per qubit for Pauli (``_LS_OPS``).

Memory: the Pauli tables have 3^2k 2^2k cells (13.4 MB of float64 at k=4,
483 MB at k=5).  The Born map writes real parts straight into the table,
block by block (``_pauli_fold``), and ``sample`` draws the counts in
``SAMPLE_BLOCKS`` blocks of rows and stores the frequencies in that same
buffer, so a Pauli ``sample`` peaks at about 1.25 tables.  The blocked and
in-place steps do the arithmetic and draws of the whole-array forms, so the
tables are bitwise equal to theirs.

The MUB kernels take one basis at a time.  The scenario-3 Born table and
its adjoint take one D x D product per basis B_a of C^D (D = d^2), each
basis built from the family's phase tables when it is needed, so their
transients are a few D x D blocks (about 3.5 MB at d = 16) where the whole
(D+1) x D x D stack would be 270 MB.  Both scenario-4 directions are
products with the d(d+1) x d^2 rows conj(v_i) v_a of ``_mub_rows`` (about
17 MB at d = 32).  These kernels sum in another order than a single
``einsum`` over the stack would, so their tables agree with it to rounding
(about 1e-15 of the table's maximum), not bitwise.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .channels import PSD_TOL, ChoiMatrix, _check_choice, _check_int, qubit_count
from .designs import PAULI_VECTORS, mub_family

logger = logging.getLogger(__name__)

SAMPLE_BLOCKS = 16       # sample: the Born rows are drawn in this many blocks

__all__ = [
    "SamplingPlan",
    "FrequencyTable",
    "setting_count",
    "probability_array",
    "exact_table",
    "sample",
]


@dataclass(frozen=True)
class SamplingPlan:
    """How many shots to take and how to schedule settings."""

    scheme: Literal["fixed", "random"]
    n_shots: int
    seed: int

    def __post_init__(self):
        _check_choice("scheme", self.scheme, ("fixed", "random"))
        # plain ints: numpy would truncate a float or bool, or fail untyped
        _check_int("n_shots", self.n_shots, low=1)
        _check_int("seed", self.seed, low=0)

    def shots_per_setting(self, n_settings: int) -> float:
        """nu = n_shots / n_settings; the fixed scheme needs it whole."""
        if self.scheme == "fixed" and self.n_shots % n_settings:
            raise ValueError(
                f"fixed scheme needs n_shots divisible by {n_settings} settings")
        return self.n_shots / n_settings


@dataclass(frozen=True)
class FrequencyTable:
    """Frequencies of one scenario at system dimension d: the multinomial
    counts of each setting divided by nu (``sample``), exact Born
    probabilities (``exact_table``) or lab data.  Construction takes
    ``values`` as a float array (a float64 array as is), refusing complex
    values, and checks its layout and that every value is finite."""

    scenario: int
    dim: int                 # system dimension d
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError(f"values must be real, got {np.asarray(self.values).dtype}")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        _check_int("dim", self.dim, low=2)
        shape = _table_shape(self.scenario, self.dim)
        if values.shape != shape:
            raise ValueError(f"scenario {self.scenario} at d = {self.dim} needs a "
                             f"{shape} table, got {values.shape}")
        lo, hi = values.min(), values.max()  # nan propagates; no table-sized mask
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"values must be finite, got min {lo} and max {hi}")

    @property
    def k(self) -> int:
        """Qubit count for the Pauli scenarios (d = 2^k)."""
        return qubit_count(self.dim)


def _table_shape(scenario: int, d: int) -> tuple:
    """The table layout of a scenario at system dimension d (module docstring);
    the table, ``setting_count`` and ``_born`` check the scenario here, and
    d: 2^k for 1-2, a (cached) MUB family of C^(d^2) or C^d for 3-4."""
    _check_int("scenario", scenario, 1, 4)
    if scenario in (1, 2):
        k = qubit_count(d)
        return (9**k, 4**k) if scenario == 1 else (3**k, 3**k, 2**k, 2**k)
    mub_family(d * d if scenario == 3 else d)
    return (d * d * (d * d + 1),) if scenario == 3 else (d * (d + 1),) * 2


def setting_count(scenario: int, d: int) -> int:
    """Number of distinct setting/input combinations cycled in each scenario
    at system dimension d: the cells of the table's setting axes."""
    return math.prod(_table_shape(scenario, d)[:-1])


def _pauli_fold(x: np.ndarray, ops: np.ndarray, out=None) -> np.ndarray:
    """out[b] = sum_a x[a] prod_i ops[a_i, a'_i, b_i, b'_i] over n qubits, x
    indexed [a_0..a_{n-1}, a'_0..a'_{n-1}] and out likewise: one ``tensordot``
    per qubit from qubit 0, O(n 6^n).  The Born map grows 4 cells per qubit
    to 6 (``_BORN_OPS``) and writes the real part into ``out``; the adjoint
    and the Pauli LS estimate shrink 6 to 4 (conj(``_BORN_OPS``)^T and
    ``_LS_OPS``) and return the complex sum.

    Chunking: the side with 6^n cells is visited in 6 x 6 blocks over two
    qubits.  Growing folds qubit 0 on all of x, then in each of its 6 blocks
    qubit 1, then in each of those the other qubits whole, and writes that
    block of ``out``.  Shrinking casts each block of qubits n-2 and n-1 to
    complex and folds its qubits 0..n-3 whole, then stacks 6 results and
    folds qubit n-2, and stacks 6 of those and folds qubit n-1.  A block is
    at most 1/18 of the table, so no complex copy of a whole table is made.
    A block with one row left would reach BLAS as a vector product, whose
    rounding differs, so two qubits always fold whole; every element goes
    through the arithmetic of the whole-tensor fold, so the result is
    bitwise equal to it.
    """
    n = x.ndim // 2
    grow = ops.shape[2] * ops.shape[3] > ops.shape[0] * ops.shape[1]
    split = max(0, min(2, n - 2))  # qubits visited in blocks
    pairs = [ax for i in range(n) for ax in (i, n + i)]  # [a_0, a'_0, a_1, ...]

    def fold(t):
        """Fold the qubit on t's first two axes; its (b, b') go last."""
        return np.tensordot(np.ascontiguousarray(t, dtype=complex), ops, ([0, 1], [0, 1]))

    def block(i, s, o):
        return (slice(None),) * (2 * i) + (slice(s, s + 1), slice(o, o + 1))

    def visit(t, level, dest):
        if level == split:
            for _ in range(n - split):
                t = fold(t)
            if not grow:
                return t
            dest[...] = t.real
        elif grow:
            t = fold(t)
            for s, o in np.ndindex(3, 2):
                visit(t[..., s:s + 1, o:o + 1], level + 1, dest[block(level, s, o)])
        else:
            q = n - 1 - level
            parts = [visit(t[block(q, s, o)], level + 1, None) for s, o in np.ndindex(3, 2)]
            return fold(np.concatenate(parts).reshape((3, 2) + parts[0].shape[2:]))

    if grow:
        visit(x.transpose(pairs), 0, out.transpose(pairs))
        return out
    return visit(x.transpose(pairs), 0, None).transpose(np.argsort(pairs))


# ops[r, c, s, o] = conj(v_r) v_c over the six Pauli eigenvectors v = |o, s>,
# and the LS factors 3|o,s><o,s| - 1 = 3 conj(ops)^T - 1 of its adjoint
_BORN_OPS = np.einsum("ru,cu->rcu", PAULI_VECTORS.conj(), PAULI_VECTORS).reshape(2, 2, 3, 2)
_LS_OPS = 3 * _BORN_OPS.conj().transpose(2, 3, 0, 1) - np.eye(2)
_BORN_OPS.setflags(write=False)
_LS_OPS.setflags(write=False)


def _pauli_view(values: np.ndarray, scenario: int, k: int) -> np.ndarray:
    """A scenario-1 or 2 table as a view [s_0..s_{2k-1}, o_0..o_{2k-1}] over
    the 2k Choi qubits, system first, which the Born map writes and the LS
    estimator reads: scenario 2's [a, b, q, p] reads as [b, a, p, q], since
    p^ab_qp = d Tr(Phi P^b_p (x) P^a_q) puts measurement (b, p) on the system."""
    joint = np.reshape(values, (3,) * (2 * k) + (2,) * (2 * k))
    if scenario == 1:
        return joint
    a, b, q, p = (list(range(i * k, (i + 1) * k)) for i in range(4))
    return joint.transpose(b + a + p + q)


def _mub_outcome_probabilities(phi: np.ndarray, d: int) -> np.ndarray:
    """Scenario-3 distribution over the d^2(d^2+1) MUB outcomes, basis-major:
    row a is Re <v|phi|v> over the vectors v of basis a, the row-wise dot of
    conj(B_a) phi with B_a, one D x D product per basis."""
    fam = mub_family(d * d)
    p = np.empty((fam.dim + 1, fam.dim))
    for a in range(fam.dim + 1):
        basis = fam.basis(a)
        p[a] = np.einsum("ti,ti->t", basis.conj() @ phi, basis).real
    p /= d * d + 1
    return p.reshape(-1)


def _mub_outcome_adjoint(f: np.ndarray, d: int) -> np.ndarray:
    """sum_v f_v |v><v|, d^2+1 times the adjoint of the above: per basis,
    (B_a^T * f_a) @ conj(B_a)."""
    fam = mub_family(d * d)
    mat = np.zeros((fam.dim, fam.dim), dtype=complex)
    for a, row in enumerate(f.reshape(fam.dim + 1, fam.dim)):
        basis = fam.basis(a)
        mat += (basis.T * row) @ basis.conj()
    return mat


def _mub_rows(d: int) -> np.ndarray:
    """R[v, (i, a)] = conj(v_i) v_a over the vectors v of the MUB family of
    C^d, basis-major; both scenario-4 kernels are products with it."""
    vecs = mub_family(d).vectors()
    return (vecs.conj()[:, :, None] * vecs[:, None, :]).reshape(len(vecs), d * d)


def _mub_direct_probabilities(phi: np.ndarray, d: int) -> np.ndarray:
    """Scenario-4 distributions p[input k, outcome l]: the amplitude
    <v_l, v_k| phi |v_l, v_k> is entry (k, l) of R Phi^T R^T, with
    R = ``_mub_rows(d)`` and Phi[(i, a), (j, b)] = phi[(i, j), (a, b)]: two
    BLAS products, the input (ancilla) side first."""
    rows = _mub_rows(d)
    phi_t = np.asarray(phi).reshape((d,) * 4).transpose(1, 3, 0, 2).reshape(d * d, -1)
    amp = (rows @ phi_t) @ rows.T
    return amp.real * d / (d + 1)


def _mub_direct_adjoint(g: np.ndarray, d: int) -> np.ndarray:
    """sum g[k, l] P_l (x) P_k, P_v = |v><v|, (d+1)/d times the adjoint of
    the above: P^T (g^T P) for P = conj(``_mub_rows``), whose row v is P_v
    flattened, realigned from (s, s', a, a') to (s, a, s', a')."""
    projs = _mub_rows(d).conj()
    mat = (projs.T @ (g.T @ projs)).reshape((d,) * 4)
    return mat.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def _clamp_rows(p: np.ndarray, d: int) -> np.ndarray:
    """Clamp tiny negative probabilities and renormalize each distribution,
    in place on ``p``, a freshly computed table.  A ``ChoiMatrix`` may have
    eigenvalues down to -``PSD_TOL``, and a Born probability is at least
    c lambda_min with c = 1, d, 1/(d^2+1), d/(d+1) <= d in scenarios 1-4, so
    only a value below -d ``PSD_TOL`` is refused."""
    if p.min() < -d * PSD_TOL:
        raise ValueError(f"probability {p.min():.3e} too negative; Choi not physical?")
    np.clip(p, 0.0, None, out=p)
    sums = p.sum(axis=-1, keepdims=True)
    if np.abs(sums - 1.0).max() > 1e-9:
        logger.warning("renormalizing probabilities by up to %.3e", np.abs(sums - 1).max())
    p /= sums
    return p


def _born(phi: np.ndarray, scenario: int, d: int) -> np.ndarray:
    """Born table of a Hermitian phi in table layout, before any clamping:
    linear in phi, and the measurement map the LS estimators invert.  The
    scenario is checked before any work."""
    shape = _table_shape(scenario, d)
    if scenario == 3:
        return _mub_outcome_probabilities(phi, d)
    if scenario == 4:
        return _mub_direct_probabilities(phi, d)
    k = qubit_count(d)
    table = np.empty(shape)
    _pauli_fold(np.reshape(phi, (2,) * (4 * k)), _BORN_OPS, _pauli_view(table, scenario, k))
    if scenario == 2:
        table *= d
    return table


def probability_array(choi: ChoiMatrix, scenario: int) -> np.ndarray:
    """Exact Born frequencies for a physical Choi matrix, in table layout:
    ``_born``, clamped, with every per-setting distribution normalized."""
    return _clamp_rows(_born(choi.matrix, scenario, choi.dim), choi.dim)


def exact_table(choi: ChoiMatrix, scenario: int) -> FrequencyTable:
    """Frequency table holding exact Born probabilities (the N -> inf limit)."""
    return FrequencyTable(scenario, choi.dim, probability_array(choi, scenario))


def _stream(seed: int, scenario: int, idx: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=[seed, scenario, idx])
    return np.random.Generator(np.random.Philox(seq))


def sample(choi: ChoiMatrix, scenario: int, plan: SamplingPlan) -> FrequencyTable:
    """Draw a frequency table under the fixed or random setting scheme.

    First the shots per setting: exactly nu = N / n_settings each in the
    fixed scheme (N must divide), one multinomial draw of N shots over
    uniform settings in the random scheme.  Then each setting's counts are
    one multinomial draw of its shots over its row of the Born table, the
    rows taken in ``SAMPLE_BLOCKS`` blocks.  Every draw comes from the one
    stream keyed by (seed, scenario, n_settings); numpy draws a block of
    rows row by row, so the blocks give the bits of one call over all rows.

    Each block's counts are divided by nu into its rows of the Born table's
    buffer, so the returned ``values`` is that buffer.
    """
    probs = probability_array(choi, scenario)
    n_settings = setting_count(scenario, choi.dim)
    rows = probs.reshape(n_settings, -1)
    nu = plan.shots_per_setting(n_settings)
    rng = _stream(plan.seed, scenario, n_settings)
    if plan.scheme == "fixed":
        shots = np.full(n_settings, plan.n_shots // n_settings)
    else:
        shots = rng.multinomial(plan.n_shots, np.full(n_settings, 1 / n_settings))
    step = math.ceil(n_settings / SAMPLE_BLOCKS)
    for lo in range(0, n_settings, step):
        blk = slice(lo, lo + step)
        np.divide(rng.multinomial(shots[blk], rows[blk]), nu, out=rows[blk])
    return FrequencyTable(scenario, choi.dim, probs)
