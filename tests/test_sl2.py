import numpy as np
import pytest

from matrix_oracle import (
    DegenerateColumnError,
    NotUnimodularError,
    angle_of,
    det,
    kh_decompose,
    normalize_angle,
    rot,
    upper,
)

TWO_PI = 2.0 * np.pi


class TestRotation:
    def test_identity(self):
        assert np.allclose(rot(0.0), np.eye(2))

    def test_quarter_turn(self):
        assert np.allclose(rot(np.pi / 2), [[0, 1], [-1, 0]], atol=1e-15)

    def test_half_turn_is_minus_identity(self):
        assert np.allclose(rot(np.pi), -np.eye(2), atol=1e-15)

    def test_angle_addition(self):
        rng = np.random.default_rng(1)
        for s, t in rng.uniform(-5, 5, (20, 2)):
            assert np.allclose(rot(s) @ rot(t), rot(s + t), atol=1e-12)

    def test_determinant(self):
        for t in np.linspace(0, TWO_PI, 17):
            assert det(rot(t)) == pytest.approx(1.0, abs=1e-15)


class TestProducts:
    def test_identity_neutral(self):
        m = np.array([[1.3, 0.4], [0.2, (1 + 0.4 * 0.2) / 1.3]])
        assert np.allclose(np.eye(2) @ m, m)

    def test_shear_product(self):
        assert np.allclose(upper(1, 1) @ np.eye(2), [[1, 1], [0, 1]])

    def test_det_preserved_over_chains(self):
        rng = np.random.default_rng(2)
        m = np.eye(2)
        for _ in range(100):
            m = m @ rot(rng.uniform(0, TWO_PI)) @ upper(np.exp(rng.normal(0, 0.05)), rng.normal(0, 0.1))
        assert abs(det(m) - 1.0) < 1e-9


class TestDecomposition:
    def test_pure_rotation(self):
        theta, h = kh_decompose(rot(1.2))
        assert theta == pytest.approx(1.2, abs=1e-12)
        assert h.a == pytest.approx(1.0, abs=1e-12)
        assert h.b == pytest.approx(0.0, abs=1e-12)

    def test_pure_shear(self):
        theta, h = kh_decompose(np.array([[2.0, 0.0], [0.0, 0.5]]))
        assert theta == 0.0
        assert h.a == pytest.approx(2.0)
        assert h.b == pytest.approx(0.0)

    def test_recovers_constructed_factors(self):
        m = rot(0.5) @ upper(1.5, 0.3)
        theta, h = kh_decompose(m)
        assert theta == pytest.approx(0.5, abs=1e-12)
        assert h.a == pytest.approx(1.5, abs=1e-12)
        assert h.b == pytest.approx(0.3, abs=1e-12)

    def test_random_factor_recovery(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = rng.uniform(0, TWO_PI)
            a = float(np.exp(rng.normal(0, 0.7)))
            b = float(rng.normal(0, 2.0))
            theta, h = kh_decompose(rot(t) @ upper(a, b))
            assert abs(theta - t) < 1e-10 or abs(abs(theta - t) - TWO_PI) < 1e-10
            assert h.a == pytest.approx(a, rel=1e-10)
            assert h.b == pytest.approx(b, abs=1e-9 * max(1.0, abs(b)))

    def test_roundtrip_reconstruction(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rot(rng.uniform(0, TWO_PI)) @ upper(np.exp(rng.normal()), rng.normal())
            theta, h = kh_decompose(m)
            assert np.max(np.abs(rot(theta) @ h.matrix - m)) < 1e-10

    def test_transversal_property(self):
        # the rotation factor depends only on the coset, not the shear
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = rng.uniform(0, TWO_PI)
            h = upper(np.exp(rng.normal()), rng.normal())
            assert angle_of(rot(t) @ h) == pytest.approx(t % TWO_PI, abs=1e-10)

    def test_not_unimodular_rejected(self):
        with pytest.raises(NotUnimodularError):
            kh_decompose(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_degenerate_column_rejected(self):
        m = np.array([[1e-15, -1.0], [1e-15, 1.0]])
        with pytest.raises(DegenerateColumnError):
            kh_decompose(m, tol_det=10.0)


class TestAngleOf:
    def test_rotation_angle_mod_2pi(self):
        assert angle_of(rot(3 * np.pi)) == pytest.approx(np.pi, abs=1e-12)

    def test_shear_has_angle_zero(self):
        assert angle_of(upper(1.7, -0.4)) == 0.0

    def test_normalize_angle(self):
        assert normalize_angle(-np.pi) == pytest.approx(np.pi)
        assert normalize_angle(TWO_PI) == 0.0
        assert 0.0 <= normalize_angle(123.456) < TWO_PI
