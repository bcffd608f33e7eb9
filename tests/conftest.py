import tracemalloc

import numpy as np
import pytest

from proctomo.channels import ChannelSpec, choi_from_kraus, make_channel
from proctomo.simulate import SamplingPlan, setting_count


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def random_hermitian(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_density(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_ops(d, n_ops, rng):
    """Random trace-preserving Kraus set from a QR isometry."""
    g = rng.standard_normal((n_ops * d, d)) + 1j * rng.standard_normal((n_ops * d, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d:(i + 1) * d, :] for i in range(n_ops)]


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def pauli_channels(k, rng):
    """Choi matrices of a noisy QFT, a random unitary and a mixed unitary."""
    d = 2**k
    specs = [ChannelSpec("noisy_qft", d, measure_prob=0.25),
             ChannelSpec("unitary", d, unitary=random_unitary(d, rng)),
             ChannelSpec("mixed_unitary", d, unitary=random_unitary(d, rng), rank=2)]
    return [choi_from_kraus(make_channel(spec)) for spec in specs]


def pauli_plans(scenario, k):
    """One random-scheme and one fixed-scheme plan (two shots per setting)."""
    return [SamplingPlan("random", 10**5, seed=11),
            SamplingPlan("fixed", 2 * setting_count(scenario, 2**k), seed=12)]


def transient_peak(fn, *args):
    """(result, peak bytes allocated during the call) under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
