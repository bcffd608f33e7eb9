import hashlib
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from proctomo.designs import (_GF2_POLYS, AXES, PAULI_VECTORS, UNBIASED_TOL,
                              MubFamily, mub_family, near_isotropy_defect)

from conftest import transient_peak
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
        assert fam.vectors().shape == (6, 2)
        bases = fam.vectors().reshape(3, 2, 2)
        assert_allclose(bases[0], np.eye(2), atol=1e-15)
        # remaining bases are the x and y eigenbases up to phases
        for b, axis in ((1, "x"), (2, "y")):
            u = 2 * AXES.index(axis)
            overlap = np.abs(bases[b] @ PAULI_VECTORS[:, u:u + 2].conj()) ** 2
            assert_allclose(np.sort(overlap, axis=1), [[0, 1], [0, 1]], atol=1e-12)

    def test_odd_prime_phases(self):
        bases = mub_family(3).vectors().reshape(4, 3, 3)
        omega = np.exp(2j * np.pi / 3)
        l = np.arange(3)
        for j in range(3):
            for t in range(3):
                expected = omega ** ((j * l**2 + t * l) % 3) / np.sqrt(3)
                assert_allclose(bases[j + 1, t], expected, atol=1e-12)

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
    d = 2**m
    assert np.array_equal(mub_family(d).vectors().reshape(d + 1, d, d),
                          _pairwise_mub_power_of_two(m))


def test_power_of_two_bytes_pinned_at_256():
    # sha256 of the D = 256 family as built by (1j ** phase) / sqrt(D) on the
    # whole D^3 phase array, before the table lookup replaced it
    digest = hashlib.sha256(mub_family(256).vectors().tobytes()).hexdigest()
    assert digest == ("20e19d00aa2b08c33dd5e720b573fcb0"
                      "6917ef81f7e1d7e7a9eba40d32cbd854")


@pytest.mark.parametrize("p,digest", [
    (127, "94d34b05e68eb60eb761b8934d42c26e92f7c17ae5217886216ffe1e49e5edce"),
    (251, "9473b8746da0dad8b122c9fde6a29d4dcd577f00534180a0f2e306ccc3767e5b"),
])
def test_odd_prime_bytes_pinned(p, digest):
    # sha256 of the family as built by omega ** (j l^2 + t l mod p) / sqrt(p),
    # one complex power per entry, before both builders shared one fill
    assert hashlib.sha256(mub_family(p).vectors().tobytes()).hexdigest() == digest


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 16, 64])
def test_basis_matches_stack(dim):
    fam = mub_family(dim)
    bases = fam.vectors().reshape(dim + 1, dim, dim)
    for a in range(dim + 1):
        basis = fam.basis(a)
        assert basis.tobytes() == bases[a].tobytes()
        assert not basis.flags.writeable
    for b in (-1, dim + 1):
        with pytest.raises(IndexError, match=f"basis {b} out of range"):
            fam.basis(b)


def test_family_build_peak():
    # the family holds D x D tables, never the (D+1) x D x D stack (270 MB)
    _, peak = transient_peak(mub_family.__wrapped__, 256)
    assert peak <= 16 * 2**20


class TestMubValidation:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 16, 32, 64])
    def test_supported_family_passes_pairwise_oracle(self, dim):
        fam = mub_family(dim)
        MubFamily(dim, fam.roots, fam.f, fam.c)
        bases = fam.vectors().reshape(dim + 1, dim, dim)
        for basis in bases:
            assert_allclose(basis @ basis.conj().T, np.eye(dim), atol=1e-12)
        assert pairwise_unbiasedness_defect(bases) <= UNBIASED_TOL

    @staticmethod
    def _tables(dim):
        fam = mub_family(dim)
        return np.array(fam.roots), np.array(fam.f), np.array(fam.c)

    def test_wrong_shape(self):
        roots, f, c = self._tables(4)
        for f_bad, c_bad in ((f[:-1], c), (f, c[:, :-1]), (f.astype(float), c)):
            with pytest.raises(ValueError, match="expected D x D integer tables"):
                MubFamily(4, roots, f_bad, c_bad)
        for roots_bad in (roots[None], roots[:0]):
            with pytest.raises(ValueError, match="non-empty vector of roots"):
                MubFamily(4, roots_bad, f, c)

    def test_entry_of_wrong_modulus(self):
        roots, f, c = self._tables(8)
        roots[1] *= 1 + 2e-12  # twice EXACT_TOL
        with pytest.raises(ValueError, match="modulus other than 1"):
            MubFamily(8, roots, f, c)

    def test_roots_not_powers_of_one_root(self):
        # modulus 1 throughout, but roots[1]^2 != roots[2]
        roots, f, c = self._tables(8)
        roots[1] = np.exp(0.3j)
        with pytest.raises(ValueError, match="not the powers of one"):
            MubFamily(8, roots, f, c)

    def test_basis_one_not_orthonormal(self):
        roots, f, c = self._tables(8)
        c[2] = c[1]
        with pytest.raises(ValueError, match="basis 1 is not orthonormal"):
            MubFamily(8, roots, f, c)

    def test_basis_one_not_character_table(self):
        # a phase per column keeps basis 1 unitary and flat, but
        # conj(row 0) * row t * sqrt(D) is then the untwisted row t
        roots, f, c = self._tables(8)
        c += np.random.default_rng(1).integers(1, 4, size=8)
        with pytest.raises(ValueError, match="basis 1 is not a character table"):
            MubFamily(8, roots, f, c)

    def test_repeated_basis_not_unbiased(self):
        roots, f, c = self._tables(5)
        f[2] = f[1]
        with pytest.raises(ValueError, match="bases 2, 3 are not unbiased"):
            MubFamily(5, roots, f, c)


class TestMubCache:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_same_instance(self, dim):
        assert mub_family(dim) is mub_family(dim)

    def test_arrays_read_only(self):
        fam = mub_family(4)
        for arr in (fam.vectors(), fam.basis(2), fam.roots, fam.f, fam.c):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0

    def test_caller_array_untouched(self):
        src = mub_family(4)
        tables = [np.array(src.roots), np.array(src.f), np.array(src.c)]
        fam = MubFamily(4, *tables)
        before = fam.vectors()
        for arr, kept in zip(tables, (fam.roots, fam.f, fam.c)):
            assert arr.flags.writeable
            assert not kept.flags.writeable
            assert not np.shares_memory(arr, kept)
            arr[...] = 0
        assert np.array_equal(fam.vectors(), before)

    def test_compared_by_identity(self):
        fam = mub_family(4)
        twin = MubFamily(4, fam.roots, fam.f, fam.c)
        assert fam == fam and fam != twin
        assert len({fam, twin, mub_family(4)}) == 2

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
        truncated = fam.vectors()[:-4]  # drop one basis
        assert near_isotropy_defect(truncated) > 0.5

    def test_random_probe_determinism(self):
        fam = mub_family(5)
        assert near_isotropy_defect(fam) == near_isotropy_defect(fam)
