import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdisac.arrays import dft_codebook, ula_response_matrix
from fdisac.errors import ConstraintViolationError


def _validate_codebook(cb, tol=1e-12):
    """Raise if any codebook entry deviates from the constant-modulus constraint."""
    dev = np.abs(np.abs(cb.vectors) ** 2 - 1.0 / cb.n_elems).max()
    if dev > tol:
        raise ConstraintViolationError(
            f"codebook entries deviate from |.|^2 = 1/{cb.n_elems} by {dev:.3e}"
        )


def test_steering_broadside_is_all_ones():
    np.testing.assert_allclose(ula_response_matrix(4, [0.0], 0.5)[:, 0], np.ones(4), atol=1e-12)


def test_steering_30deg_half_wavelength():
    # sin(30 deg) = 0.5 so the second element sits at phase pi/2
    np.testing.assert_allclose(ula_response_matrix(2, [30.0], 0.5)[:, 0], [1.0, 1.0j], atol=1e-9)


def test_steering_endfire_minus_90():
    np.testing.assert_allclose(ula_response_matrix(2, [-90.0], 0.5)[:, 0], [1.0, -1.0], atol=1e-12)


@pytest.mark.parametrize(
    "n, angle, spacing",
    [
        (0, 0.0, 0.5), (4, 91.0, 0.5), (4, -90.1, 0.5), (4, 0.0, 0.0), (4, 0.0, -0.3),
        (4, np.nan, 0.5), (4, np.inf, 0.5), (4, -np.inf, 0.5),
    ],
)
def test_steering_rejects_bad_arguments(n, angle, spacing):
    with pytest.raises(ValueError):
        ula_response_matrix(n, [angle], spacing)
    # one bad angle among good ones, and in a stack of angle rows
    with pytest.raises(ValueError):
        ula_response_matrix(n, [10.0, angle, -10.0], spacing)
    with pytest.raises(ValueError):
        ula_response_matrix(n, [[10.0, 20.0], [angle, 0.0]], spacing)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    angle=st.floats(min_value=-90.0, max_value=90.0),
    spacing=st.floats(min_value=0.05, max_value=2.0),
)
def test_steering_unit_modulus_and_norm(n, angle, spacing):
    v = ula_response_matrix(n, [angle], spacing)[:, 0]
    assert np.abs(np.abs(v) - 1.0).max() < 1e-12
    assert v[0] == 1.0 + 0.0j
    assert abs(np.linalg.norm(v) ** 2 - n) < 1e-9 * n


def test_response_matrix_matches_explicit_exponential():
    # half-wavelength spacing: element n toward theta is exp(j*pi*n*sin(theta))
    angles = np.array([-60.0, -5.0, 12.3, 89.0])
    n = np.arange(6)
    mat = ula_response_matrix(6, angles)
    for j, ang in enumerate(angles):
        expected = np.exp(1j * np.pi * n * np.sin(np.deg2rad(ang)))
        np.testing.assert_allclose(mat[:, j], expected, atol=1e-14)
    # a stack of angle rows gives one matrix per row
    stack = ula_response_matrix(6, np.stack([angles, angles[::-1]]))
    assert stack.shape == (2, 6, 4)
    np.testing.assert_array_equal(stack[0], mat)
    np.testing.assert_array_equal(stack[1], mat[:, ::-1])


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
    expected = ula_response_matrix(4, [0.0])[:, 0] / 2.0
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
