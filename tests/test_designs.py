import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proctomo.designs import (_GF2_POLYS, _mub_power_of_two, MubFamily,
                              all_settings, mub_family, near_isotropy_defect,
                              pauli_basis_matrix, pauli_projector,
                              scenario_inputs, scenario_povm,
                              setting_from_index, setting_index,
                              load_mub_family, save_mub_family)

from conftest import random_hermitian
from oracles import _gf2_mul, _gr_mul, _hensel_lift


class TestPauliProjectors:
    def test_z_basis(self):
        assert_allclose(pauli_projector("z", (0,)), np.diag([1.0, 0.0]), atol=1e-15)
        assert_allclose(pauli_projector("z", (1,)), np.diag([0.0, 1.0]), atol=1e-15)

    def test_plus_state(self):
        assert_allclose(pauli_projector("x", (0,)),
                        0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15)

    def test_product_projector(self):
        got = pauli_projector(("z", "x"), (0, 1))
        expected = np.kron(pauli_projector("z", (0,)), pauli_projector("x", (1,)))
        assert_allclose(got, expected, atol=1e-15)

    def test_completeness(self):
        for setting in (("x", "y"), ("z", "z"), ("y", "x", "z")):
            acc = sum(pauli_projector(setting, bits)
                      for bits in itertools.product((0, 1), repeat=len(setting)))
            assert_allclose(acc, np.eye(2 ** len(setting)), atol=1e-14)

    def test_eigenvalue_convention(self):
        # sigma_s |o,s> = (-1)^o |o,s>
        sigmas = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
                  "y": np.array([[0, -1j], [1j, 0]]),
                  "z": np.diag([1.0 + 0j, -1.0])}
        for axis, sigma in sigmas.items():
            basis = pauli_basis_matrix(axis)
            for o in (0, 1):
                assert_allclose(sigma @ basis[:, o], (-1) ** o * basis[:, o], atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_projector(("z", "x"), (0,))


def test_setting_enumeration_round_trip():
    n = 3
    settings = list(all_settings(n))
    assert len(settings) == 27
    for s in settings:
        assert setting_from_index(setting_index(s), n) == s


class TestMubFamilies:
    def test_qubit_family_is_pauli(self):
        fam = mub_family(2)
        assert fam.bases.shape == (3, 2, 2)
        assert_allclose(fam.bases[0], np.eye(2), atol=1e-15)
        # remaining bases are the x and y eigenbases up to phases
        for b, axis in ((1, "x"), (2, "y")):
            overlap = np.abs(fam.bases[b] @ pauli_basis_matrix(axis).conj()) ** 2
            assert_allclose(np.sort(overlap, axis=1), [[0, 1], [0, 1]], atol=1e-12)

    def test_odd_prime_phases(self):
        fam = mub_family(3)
        omega = np.exp(2j * np.pi / 3)
        l = np.arange(3)
        for j in range(3):
            for t in range(3):
                expected = omega ** ((j * l**2 + t * l) % 3) / np.sqrt(3)
                assert_allclose(fam.bases[j + 1, t], expected, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 16])
    def test_projector_resolution(self, dim):
        fam = mub_family(dim)
        vecs = fam.vectors()
        acc = vecs.T @ vecs.conj()
        assert_allclose(acc, (dim + 1) * np.eye(dim), atol=1e-10)

    def test_unsupported_dimension(self):
        with pytest.raises(NotImplementedError, match="odd primes"):
            mub_family(6)

    def test_serialization_round_trip(self, tmp_path):
        fam = mub_family(4)
        path = tmp_path / "mub4.npz"
        save_mub_family(fam, path)
        loaded = load_mub_family(path)
        assert loaded.dim == 4
        assert_allclose(loaded.bases, fam.bases, atol=0)

    def test_gf2_polynomials_irreducible(self):
        # x^(2^m) == x mod f, and not earlier
        for m, poly in _GF2_POLYS.items():
            x = 0b10 if m > 1 else 1
            cur = x
            for j in range(1, m + 1):
                cur = _gf2_mul(cur, cur, poly, m)
                if j < m and m > 1:
                    assert cur != x, f"degree-{m} polynomial splits at step {j}"
            assert cur == x, f"degree-{m} polynomial is not irreducible"


def _pairwise_mub_power_of_two(m):
    """Oracle for ``_mub_power_of_two``: one ring product and one trace per
    pair of Teichmueller elements, v_{a,b}[x] = i^(tr(ax) + 2 tr(bx mod 2)).

    Traces are traces of the multiplication map in the basis 1, x, ...,
    x^(m-1) (over Z_4 for GR(4, m), over GF(2) for GF(2^m)), computed in the
    ring itself, not the GF(2^m) exponent sums the library uses.
    """
    poly = _GF2_POLYS[m]
    d = 2**m
    h = _hensel_lift(poly, m)
    basis = np.eye(m, dtype=np.int64)
    xi = basis[1] if m > 1 else basis[0]
    teich = [np.zeros(m, dtype=np.int64)]
    cur = basis[0]
    for _ in range(d - 1):
        teich.append(cur)
        cur = _gr_mul(cur, xi, h, m)

    def gr_trace(y):
        return int(sum(_gr_mul(y, e, h, m)[j] for j, e in enumerate(basis)) % 4)

    def gf2_trace(a):
        return sum(_gf2_mul(a, 1 << j, poly, m) >> j & 1 for j in range(m)) % 2

    bits = [sum(int(t[j]) % 2 << j for j in range(m)) for t in teich]
    tr_ax = np.empty((d, d), dtype=np.int64)
    tr2_bx = np.empty((d, d), dtype=np.int64)
    for i in range(d):
        for j in range(i, d):
            tr_ax[i, j] = tr_ax[j, i] = gr_trace(_gr_mul(teich[i], teich[j], h, m))
            tr2_bx[i, j] = tr2_bx[j, i] = gf2_trace(
                _gf2_mul(bits[i], bits[j], poly, m))
    phase = np.mod(tr_ax[:, None, :] + 2 * tr2_bx[None, :, :], 4)
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    bases[1:] = (1j ** phase) / np.sqrt(d)
    return bases


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_power_of_two_matches_pairwise_oracle(m):
    assert np.array_equal(_mub_power_of_two(m), _pairwise_mub_power_of_two(m))


class TestMubCache:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_same_instance(self, dim):
        assert mub_family(dim) is mub_family(dim)

    def test_arrays_read_only(self):
        fam = mub_family(4)
        for arr in (fam.bases, fam.vectors()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_caller_array_untouched(self):
        arr = np.array(mub_family(2).bases)
        fam = MubFamily(2, arr)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, fam.bases)
        arr[0, 0, 0] = 5.0
        assert fam.bases[0, 0, 0] == 1.0

    def test_unsupported_dimension_raises_every_call(self):
        for _ in range(3):
            with pytest.raises(NotImplementedError):
                mub_family(6)


class TestNearIsotropy:
    def test_identity_probe_exact(self):
        fam = mub_family(3)
        vecs = fam.vectors()
        coeff = np.einsum("vi,ij,vj->v", vecs.conj(), np.eye(3), vecs)
        lhs = (vecs.T * coeff) @ vecs.conj()
        assert_allclose(lhs, 4 * np.eye(3), atol=1e-12)

    def test_qubit_defect_tiny(self):
        assert near_isotropy_defect(mub_family(2)) <= 1e-12

    def test_broken_family_detected(self):
        fam = mub_family(4)
        truncated = fam.bases[:-1].reshape(-1, 4)  # drop one basis
        assert near_isotropy_defect(truncated) > 0.5

    def test_random_probe_determinism(self):
        fam = mub_family(5)
        assert near_isotropy_defect(fam, seed=3) == near_isotropy_defect(fam, seed=3)


class TestScenarioPovms:
    def test_scenario3_d2(self):
        povm = scenario_povm(3, d=2)
        assert len(povm.elements) == 20
        for elem in povm.elements:
            assert np.trace(elem).real == pytest.approx(0.2, abs=1e-12)

    def test_scenario1_projective(self):
        povm = scenario_povm(1, k=1, setting=("z", "z"))
        assert len(povm.elements) == 4
        for a, b in itertools.combinations(povm.elements, 2):
            assert np.abs(a @ b).max() < 1e-12

    def test_scenario4_d2(self):
        povm = scenario_povm(4, d=2)
        assert len(povm.elements) == 6
        for elem in povm.elements:
            assert np.trace(elem).real == pytest.approx(1 / 3, abs=1e-12)


class TestScenarioInputs:
    def test_scenario2_single_qubit(self):
        states = scenario_inputs(2, k=1)
        assert len(states) == 6
        mats = [s.matrix for s in states]
        # z and x eigenprojectors are real, so transposition fixes them
        for target in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                       0.5 * np.ones((2, 2))):
            assert any(np.abs(m - target).max() < 1e-12 for m in mats)
        # the y eigenprojectors appear transposed (conjugated)
        y_plus = 0.5 * np.array([[1, -1j], [1j, 1]]).T
        assert any(np.abs(m - y_plus).max() < 1e-12 for m in mats)

    def test_scenario4_transposed_mubs(self):
        fam = mub_family(2)
        states = scenario_inputs(4, d=2)
        for vec, state in zip(fam.vectors(), states):
            assert_allclose(state.matrix, np.outer(vec, vec.conj()).T, atol=1e-12)

    def test_states_are_pure(self):
        for state in scenario_inputs(2, k=1) + scenario_inputs(4, d=3):
            purity = np.trace(state.matrix @ state.matrix).real
            assert purity == pytest.approx(1.0, abs=1e-10)
