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

The rotations are axis-major, one ``(3, 3, n)`` array: each of the nine
matrix entries is one contiguous row over the samples, so building them and
applying them are a few whole-row operations each, not work on n small
matrices. Those operations write into the rows of R, of the series or of one
scratch row wherever they can: a recording's rows are a few hundred
kilobytes, and a fresh array per intermediate costs the allocator and its
page faults more than the arithmetic. ``transform`` adds the three products of each earth component in
a written-out order, ``(X a_x + Z a_z) + Y a_y``, where X, Y and Z are the
matrix columns. Float addition is not associative, so the order fixes the
output bits; this one is the order in which numpy's
``einsum("nij,nj->ni")`` added them when the series were first made, and
the simulator's inverse (``simgen``) keeps the left-to-right order that
``einsum("nji,nj->ni")`` used. Both are pinned by frozen copies in the tests.
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

    Returns (R, degenerate) where R is the axis-major ``(3, 3, n)`` stack:
    ``R[i, j]`` is row i, column j of every sample's rotation, and the
    columns are the device X, Y and Z axes in east-north-up. ``degenerate``
    marks samples whose own rotation was undefined; those reuse the previous
    valid sample's rotation (identity if there is none).
    """
    orient_rad = np.atleast_2d(np.asarray(orient_rad, dtype=float))
    alpha, beta, gamma = orient_rad.T
    R = np.empty((3, 3, len(orient_rad)))
    X, Y, Z = R[:, 0], R[:, 1], R[:, 2]
    sa, sb = np.sin(alpha, out=Y[2]), np.sin(beta, out=X[2])
    ca, sg, cg = np.cos(alpha), np.sin(gamma), np.cos(gamma)
    tmp = np.multiply(sb, sb)

    resid = np.subtract(1.0, sa * sa)  # = sin^2 of the Z-axis tilt, 1 - sa^2 - sb^2
    resid -= tmp
    if np.any(resid < -CONSISTENCY_TOL):
        bad = int(np.argmax(resid < -CONSISTENCY_TOL))
        raise ValueError(f"inconsistent orientation at index {bad}: sin^2(a)+sin^2(b) > 1")
    np.clip(resid, 0.0, None, out=resid)

    degenerate = ca < GIMBAL_COS_LIMIT
    ca_safe = np.where(degenerate, 1.0, ca)

    # X axis: elevation beta, heading fixed by orthogonality with Y, right-handed.
    a = np.negative(sa)
    a *= sb
    a /= ca_safe
    b = np.sqrt(resid, out=resid)
    b /= ca_safe
    np.multiply(a, sg, out=X[0])
    X[0] += np.multiply(b, cg, out=tmp)
    np.multiply(a, cg, out=X[1])
    X[1] -= np.multiply(b, sg, out=tmp)
    np.multiply(ca, sg, out=Y[0])
    np.multiply(ca, cg, out=Y[1])
    # Z = X x Y, each component one product difference as np.cross forms it
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(X[i], Y[j], out=Z[k])
        Z[k] -= np.multiply(X[j], Y[i], out=tmp)

    if np.any(degenerate):
        src = np.where(degenerate, -1, np.arange(len(degenerate)))
        np.maximum.accumulate(src, out=src)
        R = R[:, :, src]
        R[:, :, src < 0] = np.eye(3)[:, :, None]
    return R, degenerate


def transform(trace: Trace) -> EnuSeries:
    """Earth-frame series for a whole trace; one output sample per input."""
    if trace.n_samples == 0:
        return EnuSeries(np.empty((0, 3)), np.empty(0))
    R, _ = rotation_matrices(np.radians(trace.orient))
    ax, ay, az = trace.acc.T
    enu = np.empty((trace.n_samples, 3))
    tmp = np.empty(trace.n_samples)
    for i, e in enumerate(enu.T):
        np.multiply(R[i, 0], ax, out=e)
        e += np.multiply(R[i, 2], az, out=tmp)
        e += np.multiply(R[i, 1], ay, out=tmp)
    enu[:, 2] -= GRAVITY
    hra = np.hypot(enu[:, 0], enu[:, 1])
    return EnuSeries(enu, hra)
