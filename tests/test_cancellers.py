import numpy as np
import pytest

from fdisac.cancellers import analog_residual_power_per_chain, build_cancellers


def _random_h(rng, m=2, n=4):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_zero_taps_all_digital():
    h = _random_h(np.random.default_rng(0))
    pair = build_cancellers(h, 0)
    np.testing.assert_array_equal(pair.analog, np.zeros_like(h))
    np.testing.assert_array_equal(pair.digital, -h)


def test_full_taps_all_analog():
    h = _random_h(np.random.default_rng(1))
    pair = build_cancellers(h, 8)  # 2 chains x 4 columns
    np.testing.assert_array_equal(pair.analog, -h)
    np.testing.assert_array_equal(pair.digital, np.zeros_like(h))


@pytest.mark.parametrize("taps", [0, 2, 4, 6, 8])
def test_perfect_csi_cancellation_telescopes(taps):
    h = _random_h(np.random.default_rng(2))
    pair = build_cancellers(h, taps)
    np.testing.assert_allclose(h + pair.analog + pair.digital, 0.0, atol=1e-15)


def test_partial_taps_column_layout():
    h = _random_h(np.random.default_rng(3))
    pair = build_cancellers(h, 4)  # 2 columns active
    np.testing.assert_array_equal(pair.analog[:, :2], -h[:, :2])
    np.testing.assert_array_equal(pair.analog[:, 2:], np.zeros((2, 2)))


def test_tap_count_validation():
    h = _random_h(np.random.default_rng(4))
    with pytest.raises(ValueError):
        build_cancellers(h, 3)  # not divisible by 2 chains
    with pytest.raises(ValueError):
        build_cancellers(h, 10)  # 5 columns > 4 available
    with pytest.raises(ValueError):
        build_cancellers(h, -2)


@pytest.mark.parametrize("taps", [0, 4, 8])
def test_stacked_cancellers_equal_per_matrix_calls(taps):
    rng = np.random.default_rng(10)
    h = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    pair = build_cancellers(h, taps)
    for k in range(3):
        one = build_cancellers(h[k], taps)
        np.testing.assert_array_equal(pair.analog[k], one.analog)
        np.testing.assert_array_equal(pair.digital[k], one.digital)
    with pytest.raises(ValueError):
        build_cancellers(h, 3)  # not divisible by 2 chains
    with pytest.raises(ValueError):
        build_cancellers(h[0, 0], 0)  # a vector is no compressed channel


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
        pair = build_cancellers(h, taps)
        worst = analog_residual_power_per_chain(h, pair.analog, v).max()
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
            pair = build_cancellers(h, taps)
            means[taps].append(
                analog_residual_power_per_chain(h, pair.analog, v).sum()
            )
    avg = {taps: np.mean(vals) for taps, vals in means.items()}
    assert avg[8] <= avg[4] <= avg[0]
