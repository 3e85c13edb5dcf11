import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdisac.arrays import dft_codebook, ula_response, ula_response_matrix
from fdisac.errors import ConstraintViolationError


def _validate_codebook(cb, tol=1e-12):
    """Raise if any codebook entry deviates from the constant-modulus constraint."""
    dev = np.abs(np.abs(cb.vectors) ** 2 - 1.0 / cb.n_elems).max()
    if dev > tol:
        raise ConstraintViolationError(
            f"codebook entries deviate from |.|^2 = 1/{cb.n_elems} by {dev:.3e}"
        )


def test_steering_broadside_is_all_ones():
    np.testing.assert_allclose(ula_response(4, 0.0, 0.5), np.ones(4), atol=1e-12)


def test_steering_30deg_half_wavelength():
    # sin(30 deg) = 0.5 so the second element sits at phase pi/2
    np.testing.assert_allclose(ula_response(2, 30.0, 0.5), [1.0, 1.0j], atol=1e-9)


def test_steering_endfire_minus_90():
    np.testing.assert_allclose(ula_response(2, -90.0, 0.5), [1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize(
    "n, angle, spacing",
    [(0, 0.0, 0.5), (4, 91.0, 0.5), (4, -90.1, 0.5), (4, 0.0, 0.0), (4, 0.0, -0.3)],
)
def test_steering_rejects_bad_arguments(n, angle, spacing):
    with pytest.raises(ValueError):
        ula_response(n, angle, spacing)
    with pytest.raises(ValueError):
        ula_response_matrix(n, [angle], spacing)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    angle=st.floats(min_value=-90.0, max_value=90.0),
    spacing=st.floats(min_value=0.05, max_value=2.0),
)
def test_steering_unit_modulus_and_norm(n, angle, spacing):
    v = ula_response(n, angle, spacing)
    assert np.abs(np.abs(v) - 1.0).max() < 1e-12
    assert v[0] == 1.0 + 0.0j
    assert abs(np.linalg.norm(v) ** 2 - n) < 1e-9 * n


def test_response_matrix_matches_single_responses():
    angles = np.array([-60.0, -5.0, 12.3, 89.0])
    mat = ula_response_matrix(6, angles)
    for j, ang in enumerate(angles):
        np.testing.assert_allclose(mat[:, j], ula_response(6, ang), atol=1e-14)


def test_dft_codebook_table_configuration():
    cb = dft_codebook(16, 5)
    assert len(cb) == 32
    assert cb.vectors.shape == (32, 16)
    np.testing.assert_allclose(np.abs(cb.vectors) ** 2, 1.0 / 16.0, atol=1e-12)
    _validate_codebook(cb)
    bent = dft_codebook(16, 5).vectors.copy()
    bent[3, 7] *= 1.001
    with pytest.raises(ConstraintViolationError):
        _validate_codebook(type(cb)(vectors=bent, n_bits=5))


def test_dft_codebook_single_element_degenerate():
    cb = dft_codebook(1, 1)
    assert len(cb) == 2
    np.testing.assert_allclose(np.abs(cb.vectors), 1.0, atol=1e-12)


def test_dft_codebook_broadside_entry():
    # sin grid point for m=2 with 2 bits is -1 + 2*2/4 = 0, i.e. broadside
    cb = dft_codebook(4, 2)
    expected = ula_response(4, 0.0) / 2.0
    np.testing.assert_allclose(cb.vectors[2], expected, atol=1e-12)


def test_dft_codebook_overflow_guard():
    with pytest.raises(ValueError):
        dft_codebook(4, 40)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=32), bits=st.integers(min_value=1, max_value=6))
def test_dft_codebook_constant_modulus_property(n, bits):
    cb = dft_codebook(n, bits)
    assert len(cb) == 2**bits
    assert np.abs(np.abs(cb.vectors) ** 2 - 1.0 / n).max() < 1e-12


def test_dft_codebook_orthogonal_when_critically_sampled():
    # 2^bits beams on an equally sized half-wavelength array form a unitary set
    cb = dft_codebook(8, 3)
    gram = cb.vectors.conj() @ cb.vectors.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)
