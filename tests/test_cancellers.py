import numpy as np
import pytest

from fdisac.arrays import dft_codebook
from fdisac.beamforming import assemble_analog
from fdisac.cancellers import analog_residual_power_per_chain, build_cancellers
from fdisac.runner import receiver_rows
from oracles import post_canceller_si


def _random_h(rng, m=2, n=4):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_zero_taps_all_digital():
    # no taps: C is zero and the digital stage (never formed) cancels all of H
    h = _random_h(np.random.default_rng(0))
    c = build_cancellers(h, 0)
    np.testing.assert_array_equal(c, np.zeros_like(h))
    assert c.shape == h.shape and c.dtype == complex


def test_full_taps_all_analog():
    h = _random_h(np.random.default_rng(1))
    np.testing.assert_array_equal(build_cancellers(h, 8), -h)  # 2 chains x 4 columns


@pytest.mark.parametrize("taps", [0, 2, 4, 6, 8])
def test_perfect_csi_cancellation_telescopes(taps):
    # D = -(H_hat + C): with a perfect estimate both cancellers leave nothing,
    # and C leaves nothing for D on the tapped columns
    h = _random_h(np.random.default_rng(2))
    np.testing.assert_allclose(post_canceller_si(h, h, taps), 0.0, atol=1e-15)
    np.testing.assert_array_equal((h + build_cancellers(h, taps))[:, : taps // 2], 0.0)


@pytest.mark.parametrize("taps", [0, 8, 16, 32])
def test_si_residual_is_both_cancellers_bit_for_bit(taps):
    # the SI block of the slot-1 receivers (c = I) is the paper's
    # (H_tilde + C + D) V_bb, to the last bit, for any tap count and under
    # SI CSI error
    rng = np.random.default_rng(12)
    n_trials, chains, per_rf, n_streams = 3, 8, 4, 2
    cb = dft_codebook(per_rf, 5)
    w_rf, v_rf = (assemble_analog(cb[rng.integers(len(cb), size=(n_trials, chains))])
                  for _ in range(2))
    shape = (n_trials, chains * per_rf, chains * per_rf)
    h_si = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h_si_hat = h_si + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v_bb = rng.standard_normal((chains, n_streams)) + 1j * rng.standard_normal((chains, n_streams))
    h_ul = np.ones((n_trials, chains * per_rf, 1), dtype=complex)
    w_h = np.swapaxes(w_rf, -1, -2).conj()
    want = post_canceller_si(w_h @ h_si @ v_rf, w_h @ h_si_hat @ v_rf, taps) @ v_bb
    rows = receiver_rows(np.eye(chains), w_rf, v_rf, h_si, h_si_hat, v_bb, h_ul,
                         np.ones((n_trials, 1)), [0.0], np.ones((n_trials, 1)))
    got = rows[..., :n_streams]
    np.testing.assert_array_equal(got, want)
    assert np.abs(got).min() > 0  # the estimation error reaches every entry


def test_partial_taps_column_layout():
    h = _random_h(np.random.default_rng(3))
    c = build_cancellers(h, 4)  # 2 columns active
    np.testing.assert_array_equal(c[:, :2], -h[:, :2])
    np.testing.assert_array_equal(c[:, 2:], np.zeros((2, 2)))


@pytest.mark.parametrize("taps", [0, 4, 8])
def test_stacked_cancellers_equal_per_matrix_calls(taps):
    rng = np.random.default_rng(10)
    h = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    c = build_cancellers(h, taps)
    for k in range(3):
        np.testing.assert_array_equal(c[k], build_cancellers(h[k], taps))


def test_residual_zero_with_full_analog_cancellation():
    rng = np.random.default_rng(5)
    h = _random_h(rng)
    v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    resid = analog_residual_power_per_chain(h, -h, v)
    np.testing.assert_allclose(resid, np.zeros(2), atol=1e-25)


def test_residual_zero_precoder():
    rng = np.random.default_rng(6)
    h = _random_h(rng)
    resid = analog_residual_power_per_chain(h, np.zeros_like(h), np.zeros((4, 3)))
    np.testing.assert_array_equal(resid, np.zeros(2))


def test_residual_matches_elementwise_oracle():
    rng = np.random.default_rng(7)
    h = _random_h(rng, m=2, n=2)
    c = _random_h(rng, m=2, n=2)
    v = _random_h(rng, m=2, n=2)
    resid = analog_residual_power_per_chain(h, c, v)
    for j in range(2):
        row = 0.0
        for col in range(2):
            acc = 0.0 + 0.0j
            for n in range(2):
                acc += (h[j, n] + c[j, n]) * v[n, col]
            row += abs(acc) ** 2
        np.testing.assert_allclose(resid[j], row, rtol=1e-12)


def test_residual_monotone_in_taps_for_row_orthogonal_precoder():
    # with V V^H proportional to the identity the per-column contributions
    # add independently, so zeroing more columns can only shrink each row
    rng = np.random.default_rng(8)
    h = _random_h(rng, m=2, n=4)
    v = np.linalg.qr(_random_h(rng, m=4, n=4))[0]  # unitary -> V V^H = I
    prev = None
    for taps in (0, 2, 4, 6, 8):
        worst = analog_residual_power_per_chain(h, build_cancellers(h, taps), v).max()
        if prev is not None:
            assert worst <= prev + 1e-15
        prev = worst


def test_residual_monotone_in_taps_on_average():
    # for generic precoders monotonicity holds in expectation
    rng = np.random.default_rng(9)
    means = {taps: [] for taps in (0, 4, 8)}
    for _ in range(200):
        h = _random_h(rng, m=2, n=4)
        v = _random_h(rng, m=4, n=3)
        for taps in means:
            means[taps].append(
                analog_residual_power_per_chain(h, build_cancellers(h, taps), v).sum()
            )
    avg = {taps: np.mean(vals) for taps, vals in means.items()}
    assert avg[8] <= avg[4] <= avg[0]
