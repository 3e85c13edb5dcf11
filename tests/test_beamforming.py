import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdisac.arrays import dft_codebook
from fdisac.beamforming import assemble_analog, tx_power
from fdisac.errors import ConstraintViolationError
from fdisac.sensing import reference_signal_grid
from oracles import steering


def test_assemble_two_chain_block_structure():
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([1.0, -1.0]) / np.sqrt(2)
    bf = assemble_analog([v1, v2])
    expected = np.zeros((4, 2), dtype=complex)
    expected[:2, 0] = v1
    expected[2:, 1] = v2
    np.testing.assert_array_equal(bf.assembled, expected)
    assert bf.assembled[2, 0] == 0.0 and bf.assembled[0, 1] == 0.0


def test_assemble_single_chain_degenerates_to_column():
    v = np.exp(1j * np.linspace(0, 1, 3)) / np.sqrt(3)
    bf = assemble_analog([v])
    np.testing.assert_allclose(bf.assembled[:, 0], v)
    assert bf.assembled.shape == (3, 1)


def test_assemble_rejects_modulus_violation():
    bad = np.array([0.9, 1.0]) / np.sqrt(2)
    with pytest.raises(ConstraintViolationError):
        assemble_analog([bad])


def test_assemble_rejects_ragged_vectors():
    with pytest.raises(ValueError):
        assemble_analog([np.ones(2) / np.sqrt(2), np.ones(3) / np.sqrt(3)])


def test_assemble_stack_matches_each_network_and_checks_every_entry():
    rng = np.random.default_rng(7)
    vecs = np.exp(2j * np.pi * rng.random((3, 2, 4))) / 2
    stack = assemble_analog(vecs)
    assert stack.assembled.shape == (3, 8, 2)
    assert (stack.n_chains, stack.n_per_chain, stack.n_antennas) == (2, 4, 8)
    for k in range(3):
        np.testing.assert_array_equal(stack.assembled[k], assemble_analog(vecs[k]).assembled)
    vecs[2, 1, 3] *= 1.01  # one entry of the last network
    with pytest.raises(ConstraintViolationError):
        assemble_analog(vecs)


def test_assembly_round_trips_per_chain_vectors():
    cb = dft_codebook(4, 3)
    vecs = cb.vectors[[1, 5, 2]]
    bf = assemble_analog(vecs)
    np.testing.assert_array_equal(bf.per_chain, vecs)
    for i in range(3):
        np.testing.assert_array_equal(bf.assembled[4 * i : 4 * (i + 1), i], vecs[i])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), n_chains=st.integers(1, 4), n_a=st.integers(1, 6))
def test_block_frobenius_decomposition(seed, n_chains, n_a):
    # ||H F||_F^2 equals the sum of per-chain terms ||H_block_i v_i||^2
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, (n_chains, n_a))
    vecs = np.exp(1j * phases) / np.sqrt(n_a)
    bf = assemble_analog(vecs)
    h = rng.standard_normal((5, n_chains * n_a)) + 1j * rng.standard_normal((5, n_chains * n_a))
    total = np.linalg.norm(h @ bf.assembled) ** 2
    per_chain = sum(
        np.linalg.norm(h[:, i * n_a : (i + 1) * n_a] @ vecs[i]) ** 2
        for i in range(n_chains)
    )
    np.testing.assert_allclose(total, per_chain, rtol=1e-10)


def _random_bf(rng, n_chains=2, n_a=3):
    phases = rng.uniform(0, 2 * np.pi, (n_chains, n_a))
    return assemble_analog(np.exp(1j * phases) / np.sqrt(n_a))


# The TX signal V_rf V_bb s reaches the sensing chain only through the dwell
# reference a_tx^H V_rf V_bb s; these tests hold that product to the
# antenna-domain signal formed explicitly.


def test_tx_signal_zero_symbols():
    bf = _random_bf(np.random.default_rng(0))
    v_bb = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(reference_signal_grid(10.0, bf, v_bb, np.zeros((2, 3))), np.zeros(3))


def test_tx_signal_identity_precoder():
    rng = np.random.default_rng(1)
    bf = _random_bf(rng)
    s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    expected = steering(6, -40.0).conj() @ (bf.assembled @ s)
    np.testing.assert_allclose(reference_signal_grid(-40.0, bf, np.eye(2), s), expected, atol=1e-14)


def test_tx_signal_matches_triple_product():
    rng = np.random.default_rng(2)
    bf = _random_bf(rng)
    v_bb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    expected = steering(6, 25.0).conj() @ (bf.assembled @ v_bb @ s)
    np.testing.assert_allclose(reference_signal_grid(25.0, bf, v_bb, s), expected, atol=1e-13)


def test_tx_signal_shape_validation():
    bf = _random_bf(np.random.default_rng(3))
    with pytest.raises(ValueError):
        reference_signal_grid(0.0, bf, np.eye(3), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        reference_signal_grid(0.0, bf, np.eye(2), np.zeros((3, 1)))


def test_tx_power_zero_precoder():
    bf = _random_bf(np.random.default_rng(4))
    assert tx_power(bf, np.zeros((2, 2))) == 0.0


def test_tx_power_orthonormal_columns_hit_budget():
    # V_rf has orthonormal columns, so scaling an identity by sqrt(P/st)
    # radiates exactly P watts
    bf = _random_bf(np.random.default_rng(5), n_chains=3, n_a=4)
    p_b, st = 2.5, 3
    v_bb = np.eye(3, dtype=complex) * np.sqrt(p_b / st)
    np.testing.assert_allclose(tx_power(bf, v_bb), p_b, rtol=1e-12)


def test_tx_power_matches_monte_carlo_average():
    # oracle: average ||V_rf V_bb s||^2 over 2*10^4 unit-power symbol draws
    rng = np.random.default_rng(6)
    bf = _random_bf(rng)
    v_bb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    draws = (rng.standard_normal((2, 20000)) + 1j * rng.standard_normal((2, 20000))) / np.sqrt(2)
    mc = np.mean(np.linalg.norm(bf.assembled @ v_bb @ draws, axis=0) ** 2)
    assert abs(mc - tx_power(bf, v_bb)) < 0.02 * tx_power(bf, v_bb)
