"""Coordinate transform checked against an independent Euler construction.

The production code builds the rotation from the geometric definitions of
the three orientation angles.  The oracle here builds it a second way, as a
composition of elementary axis rotations Rz(-gamma) @ Rx(alpha) @ Ry(rho)
with the roll angle recovered from rho = -asin(sin(beta) / cos(alpha)).
Both must agree to 1e-9 on random valid orientations.
"""

from __future__ import annotations

import numpy as np
import pytest

from subtrace.coord import rotation_matrices, transform
from subtrace.model import GRAVITY, Trace

ATOL = 1e-9
N_PAIRS = 100_000


def _rx(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _ry(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rz(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_oracle(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Same rotation assembled from elementary rotations."""
    rho = -np.arcsin(np.sin(beta) / np.cos(alpha))
    return _rz(-gamma) @ _rx(alpha) @ _ry(rho)


def random_orientations(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) radians, consistent and clear of the gimbal degeneracy."""
    alpha = rng.uniform(-1.4, 1.4, size=n)
    cap = np.sqrt(np.clip(1.0 - np.sin(alpha) ** 2, 0.0, None)) * 0.99
    beta = np.arcsin(rng.uniform(-1.0, 1.0, size=n) * cap)
    gamma = rng.uniform(-np.pi, np.pi, size=n)
    return np.stack([alpha, beta, gamma], axis=1)


class TestRotationOracle:
    def test_matches_euler_composition_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        orient = random_orientations(N_PAIRS, rng)
        acc = rng.normal(0.0, 5.0, size=(N_PAIRS, 3))

        R, degen = rotation_matrices(orient)
        assert not degen.any()

        expected = np.empty_like(R)
        for i in range(N_PAIRS):
            expected[i] = euler_oracle(*orient[i])
        assert np.max(np.abs(R - expected)) <= ATOL

        world = np.einsum("nij,nj->ni", R, acc)
        world_expected = np.einsum("nij,nj->ni", expected, acc)
        assert np.max(np.abs(world - world_expected)) <= ATOL

    def test_isometry(self):
        rng = np.random.default_rng(7)
        orient = random_orientations(20_000, rng)
        acc = rng.normal(0.0, 5.0, size=(20_000, 3))
        R, _ = rotation_matrices(orient)
        world = np.einsum("nij,nj->ni", R, acc)
        assert np.max(np.abs(
            np.linalg.norm(world, axis=1) - np.linalg.norm(acc, axis=1)
        )) <= ATOL

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(13)
        orient = random_orientations(5_000, rng)
        R, _ = rotation_matrices(orient)
        gram = np.einsum("nij,nik->njk", R, R)
        assert np.max(np.abs(gram - np.eye(3))) <= ATOL
        # right-handed: det +1
        assert np.max(np.abs(np.linalg.det(R) - 1.0)) <= ATOL

    def test_yaw_invariance_of_hra_and_vca(self):
        """Heading only spins the horizontal component; hra and vca are fixed."""
        rng = np.random.default_rng(41)
        n = 20_000
        orient = random_orientations(n, rng)
        spun = orient.copy()
        spun[:, 2] = rng.uniform(-np.pi, np.pi, size=n)
        acc = rng.normal(0.0, 5.0, size=(n, 3))

        Ra, _ = rotation_matrices(orient)
        Rb, _ = rotation_matrices(spun)
        wa = np.einsum("nij,nj->ni", Ra, acc)
        wb = np.einsum("nij,nj->ni", Rb, acc)
        assert np.max(np.abs(np.hypot(wa[:, 0], wa[:, 1]) - np.hypot(wb[:, 0], wb[:, 1]))) <= ATOL
        assert np.max(np.abs(wa[:, 2] - wb[:, 2])) <= ATOL


def rotation(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The one rotation for a single valid orientation, angles in radians."""
    R, degen = rotation_matrices(np.array([[alpha, beta, gamma]]))
    assert not degen[0]
    return R[0]


class TestAngleSemantics:
    def test_y_axis_elevation_and_heading(self):
        R = rotation(np.radians(30.0), 0.0, np.radians(45.0))
        y = R[:, 1]
        assert np.arcsin(y[2]) == pytest.approx(np.radians(30.0), abs=ATOL)
        assert np.arctan2(y[0], y[1]) == pytest.approx(np.radians(45.0), abs=ATOL)

    def test_x_axis_elevation(self):
        R = rotation(np.radians(10.0), np.radians(-20.0), np.radians(70.0))
        assert np.arcsin(R[2, 0]) == pytest.approx(np.radians(-20.0), abs=ATOL)

    def test_identity_orientation(self):
        # flat on the table, Y pointing north
        assert np.allclose(rotation(0.0, 0.0, 0.0), np.eye(3), atol=ATOL)

    def test_inconsistent_angles_raise(self):
        with pytest.raises(ValueError, match="inconsistent"):
            rotation_matrices(np.array([[np.radians(80.0), np.radians(80.0), 0.0]]))

    def test_gimbal_degenerate_flagged(self):
        _, degen = rotation_matrices(np.array([[np.radians(90.0), 0.0, 0.0]]))
        assert degen.tolist() == [True]


class TestDegenerateCarryForward:
    def test_reuses_previous_rotation(self):
        orient = np.array([
            [0.2, 0.1, 0.5],
            [np.radians(90.0), 0.0, 0.3],  # undefined heading
            [0.2, 0.1, 0.5],
        ])
        R, degen = rotation_matrices(orient)
        assert degen.tolist() == [False, True, False]
        assert np.allclose(R[1], R[0], atol=ATOL)

    def test_identity_when_nothing_precedes(self):
        R, degen = rotation_matrices(np.array([[np.radians(90.0), 0.0, 0.0]]))
        assert degen[0]
        assert np.allclose(R[0], np.eye(3), atol=ATOL)


class TestTraceTransform:
    def _trace(self, orient_deg: np.ndarray, acc: np.ndarray) -> Trace:
        n = len(acc)
        return Trace(
            device_id="t",
            sample_rate=10.0,
            t=np.arange(n) / 10.0,
            acc=acc,
            orient=orient_deg,
        )

    def test_gravity_removed_at_rest(self):
        n = 50
        orient = np.zeros((n, 3))
        acc = np.zeros((n, 3))
        acc[:, 2] = GRAVITY  # resting flat: accelerometer reads +g on Z
        series = transform(self._trace(orient, acc))
        assert np.max(np.abs(series.enu[:, 2])) <= ATOL
        assert np.max(np.abs(series.hra)) <= ATOL

    def test_hra_is_horizontal_magnitude(self):
        rng = np.random.default_rng(3)
        n = 200
        orient = np.degrees(random_orientations(n, rng))
        acc = rng.normal(0.0, 3.0, size=(n, 3))
        series = transform(self._trace(orient, acc))
        assert np.allclose(series.hra, np.hypot(series.enu[:, 0], series.enu[:, 1]), atol=ATOL)

    def test_empty_trace(self):
        series = transform(self._trace(np.zeros((0, 3)), np.zeros((0, 3))))
        assert series.enu.shape == (0, 3) and series.hra.shape == (0,)
