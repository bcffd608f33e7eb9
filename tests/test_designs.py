import hashlib
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proctomo.designs import (_GF2_POLYS, _mub_odd_prime, _mub_power_of_two,
                              AXES, PAULI_VECTORS, UNBIASED_TOL, MubFamily,
                              mub_family, near_isotropy_defect)

from conftest import random_hermitian, transient_peak
from oracles import (_gf2_mul, _gr_mul, _hensel_lift, all_settings,
                     pairwise_unbiasedness_defect, pauli_projector,
                     setting_index)


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
            for o in (0, 1):
                v = PAULI_VECTORS[:, 2 * AXES.index(axis) + o]
                assert_allclose(sigma @ v, (-1) ** o * v, atol=1e-14)

    def test_vector_table_read_only(self):
        assert PAULI_VECTORS.shape == (2, 6)
        with pytest.raises(ValueError):
            PAULI_VECTORS[0, 0] = 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_projector(("z", "x"), (0,))


def test_setting_enumeration_round_trip():
    settings = list(all_settings(3))
    assert len(settings) == 27
    assert [setting_index(s) for s in settings] == list(range(27))


class TestMubFamilies:
    def test_qubit_family_is_pauli(self):
        fam = mub_family(2)
        assert fam.bases.shape == (3, 2, 2)
        assert_allclose(fam.bases[0], np.eye(2), atol=1e-15)
        # remaining bases are the x and y eigenbases up to phases
        for b, axis in ((1, "x"), (2, "y")):
            u = 2 * AXES.index(axis)
            overlap = np.abs(fam.bases[b] @ PAULI_VECTORS[:, u:u + 2].conj()) ** 2
            assert_allclose(np.sort(overlap, axis=1), [[0, 1], [0, 1]], atol=1e-12)

    def test_odd_prime_phases(self):
        fam = mub_family(3)
        omega = np.exp(2j * np.pi / 3)
        l = np.arange(3)
        for j in range(3):
            for t in range(3):
                expected = omega ** ((j * l**2 + t * l) % 3) / np.sqrt(3)
                assert_allclose(fam.bases[j + 1, t], expected, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 16, 32, 64, 128])
    def test_projector_resolution(self, dim):
        fam = mub_family(dim)
        vecs = fam.vectors()
        acc = vecs.T @ vecs.conj()
        assert_allclose(acc, (dim + 1) * np.eye(dim), atol=1e-10)

    def test_unsupported_dimension(self):
        with pytest.raises(NotImplementedError, match="odd primes"):
            mub_family(6)

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


def test_power_of_two_bytes_pinned_at_256():
    # sha256 of the D = 256 family as built by (1j ** phase) / sqrt(D) on the
    # whole D^3 phase array, before the table lookup replaced it
    digest = hashlib.sha256(_mub_power_of_two(8).tobytes()).hexdigest()
    assert digest == ("20e19d00aa2b08c33dd5e720b573fcb0"
                      "6917ef81f7e1d7e7a9eba40d32cbd854")


@pytest.mark.parametrize("p,digest", [
    (127, "94d34b05e68eb60eb761b8934d42c26e92f7c17ae5217886216ffe1e49e5edce"),
    (251, "9473b8746da0dad8b122c9fde6a29d4dcd577f00534180a0f2e306ccc3767e5b"),
])
def test_odd_prime_bytes_pinned(p, digest):
    # sha256 of the family as built by omega ** (j l^2 + t l mod p) / sqrt(p),
    # one complex power per entry, before both builders shared one fill
    assert hashlib.sha256(_mub_odd_prime(p).tobytes()).hexdigest() == digest


def test_power_of_two_builder_peak():
    # the builder holds no D^3 temporary next to the family it returns
    bases, peak = transient_peak(_mub_power_of_two, 7)
    assert peak <= 1.1 * bases.nbytes


def test_family_adopts_builder_array():
    # MubFamily keeps the builder's read-only array instead of a second copy
    fam, peak = transient_peak(mub_family.__wrapped__, 128)
    assert peak <= 1.1 * fam.bases.nbytes


class TestMubValidation:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 16, 32, 64])
    def test_supported_family_passes_pairwise_oracle(self, dim):
        bases = mub_family(dim).bases
        MubFamily(dim, bases)
        for basis in bases:
            assert_allclose(basis @ basis.conj().T, np.eye(dim), atol=1e-12)
        assert pairwise_unbiasedness_defect(bases) <= UNBIASED_TOL

    @staticmethod
    def _copy(dim):
        return np.array(mub_family(dim).bases)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match=r"expected \(D\+1, D, D\)"):
            MubFamily(4, self._copy(4)[:-1])

    def test_basis_zero_not_computational(self):
        # entries of modulus 0 or 1, but two vectors coincide
        repeated = self._copy(5)
        repeated[0, 1] = repeated[0, 0]
        # orthonormal and flat, so every entry check of bases 1..D passes,
        # but bases 0 and 1 coincide
        flat = self._copy(5)
        flat[0] = flat[1]
        for bases in (repeated, flat):
            with pytest.raises(ValueError, match="basis 0 is not the computational"):
                MubFamily(5, bases)

    def test_entry_of_wrong_modulus(self):
        bases = self._copy(8)
        bases[3, 2, 5] *= 1.1
        with pytest.raises(ValueError, match="basis 3 has an entry of modulus "
                                             "other than 1/sqrt"):
            MubFamily(8, bases)

    def test_basis_one_not_orthonormal(self):
        bases = self._copy(8)
        bases[1, 2] = bases[1, 1]
        with pytest.raises(ValueError, match="basis 1 is not orthonormal"):
            MubFamily(8, bases)

    def test_basis_one_not_character_table(self):
        # column phases keep basis 1 unitary and flat, but conj(row 0) * row t
        # * sqrt(D) is then the untwisted row t
        bases = self._copy(8)
        phases = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, 8))
        bases[1] *= phases
        with pytest.raises(ValueError, match="basis 1 is not a character table"):
            MubFamily(8, bases)

    def test_permuted_rows_not_of_form(self):
        bases = self._copy(7)
        bases[4, [1, 2]] = bases[4, [2, 1]]
        # still mutually unbiased, but not f * chi in basis 1's row order
        assert pairwise_unbiasedness_defect(bases) <= UNBIASED_TOL
        with pytest.raises(ValueError, match="basis 4 is not of the form f \\* chi"):
            MubFamily(7, bases)

    def test_repeated_basis_not_unbiased(self):
        bases = self._copy(5)
        bases[3] = bases[2]
        with pytest.raises(ValueError, match="bases 2, 3 are not unbiased"):
            MubFamily(5, bases)


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
