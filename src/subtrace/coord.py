"""Phone-frame to east-north-up transformation.

Orientation is given as three angles: alpha is the elevation of the phone's
Y axis above the horizontal plane, beta the elevation of the X axis, and
gamma the compass heading (clockwise from true north) of the Y axis's
horizontal projection.  The rotation is built directly from the geometric
definitions rather than from tabulated component formulas; orthonormality of
the device axes constrains the Z tilt through sin^2(a) + sin^2(b) + sin^2(t) = 1.

There is one conversion path: ``transform`` turns a whole trace into an
``EnuSeries`` with one rotation per sample from ``rotation_matrices``. A
single sample is converted as a one-sample trace, never by a second routine.
The series holds its east, north and gravity-free up components as one
``(n, 3)`` array, the form the feature extractor reads, and no timestamps:
its sample i is the trace's sample i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GRAVITY, Trace

# Y-axis within 0.1 degrees of vertical: heading is undefined.
GIMBAL_COS_LIMIT = np.cos(np.radians(89.9))
CONSISTENCY_TOL = 1e-9


@dataclass
class EnuSeries:
    """Earth-frame samples of a trace, index for index."""

    enu: np.ndarray  # (n, 3) east, north, up; gravity removed from up
    hra: np.ndarray  # horizontal resultant, hypot of east and north


def rotation_matrices(orient_rad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized rotation construction with carry-forward for degenerates.

    Returns (R, degenerate) where R is (n, 3, 3) and degenerate marks samples
    whose own rotation was undefined; those reuse the previous valid sample's
    rotation (identity if there is none).
    """
    orient_rad = np.atleast_2d(np.asarray(orient_rad, dtype=float))
    alpha, beta, gamma = orient_rad[:, 0], orient_rad[:, 1], orient_rad[:, 2]
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb = np.sin(beta)
    sg, cg = np.sin(gamma), np.cos(gamma)

    resid = 1.0 - sa * sa - sb * sb  # = sin^2 of the Z-axis tilt
    if np.any(resid < -CONSISTENCY_TOL):
        bad = int(np.argmax(resid < -CONSISTENCY_TOL))
        raise ValueError(f"inconsistent orientation at index {bad}: sin^2(a)+sin^2(b) > 1")
    resid = np.clip(resid, 0.0, None)

    degenerate = ca < GIMBAL_COS_LIMIT
    ca_safe = np.where(degenerate, 1.0, ca)

    # X axis: elevation beta, heading fixed by orthogonality with Y, right-handed.
    a = -sa * sb / ca_safe
    b = np.sqrt(resid) / ca_safe
    X = np.stack([a * sg + b * cg, a * cg - b * sg, sb], axis=1)
    Y = np.stack([ca * sg, ca * cg, sa], axis=1)
    Z = np.cross(X, Y)

    R = np.stack([X, Y, Z], axis=2)  # columns

    if np.any(degenerate):
        idx = np.arange(len(R))
        valid_before = np.where(~degenerate, idx, -1)
        np.maximum.accumulate(valid_before, out=valid_before)
        eye = np.eye(3)
        for i in np.flatnonzero(degenerate):
            R[i] = eye if valid_before[i] < 0 else R[valid_before[i]]
    return R, degenerate


def transform(trace: Trace) -> EnuSeries:
    """Earth-frame series for a whole trace; one output sample per input."""
    if trace.n_samples == 0:
        return EnuSeries(np.empty((0, 3)), np.empty(0))
    R, _ = rotation_matrices(np.radians(trace.orient))
    enu = np.einsum("nij,nj->ni", R, trace.acc)
    enu[:, 2] -= GRAVITY
    hra = np.hypot(enu[:, 0], enu[:, 1])
    return EnuSeries(enu, hra)
