"""Reference computations written apart from heatflow.

Each oracle works from raw arrays (vertex coordinates, triangle indices,
vertex values) and its own closed forms, so a fault in heatflow's operators
does not cancel out of the comparison. Run `python3 bench/selftest.py` to
check the oracles on cases with known answers.
"""

from __future__ import annotations

import math

import numpy as np


# -- P1 calculus ---------------------------------------------------------------


def triangle_areas(vertices, triangles):
    """Unsigned triangle areas from the cross product of two edges."""
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def p1_gradient(vertices, triangles, values):
    """Per-triangle gradient of the piecewise-linear interpolant.

    Solves, per triangle, the 2x2 system [p1 - p0; p2 - p0] g = [f1 - f0;
    f2 - f0] by Cramer's rule. `values` has shape (nv, *payload); the result
    has shape (nt, 2, *payload).
    """
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    f = np.asarray(values, dtype=float)[triangles]
    d1 = f[:, 1] - f[:, 0]
    d2 = f[:, 2] - f[:, 0]
    shape = (-1,) + (1,) * (f.ndim - 2)
    gx = (e2[:, 1].reshape(shape) * d1 - e1[:, 1].reshape(shape) * d2) / det.reshape(shape)
    gy = (e1[:, 0].reshape(shape) * d2 - e2[:, 0].reshape(shape) * d1) / det.reshape(shape)
    return np.stack([gx, gy], axis=1)


def energy_density(grad):
    """Per-triangle |grad u|^2 summed over the payload components."""
    return (grad ** 2).reshape(grad.shape[0], -1).sum(axis=1)


def dirichlet_energy(areas, grad):
    """Raw Dirichlet energy int |grad u|^2 (no factor 1/2)."""
    return float((areas * energy_density(grad)).sum())


def energy_difference(areas, g1, g2):
    """E(u1) - E(u2) as the per-triangle sum of (g1 - g2) . (g1 + g2)."""
    prod = ((g1 - g2) * (g1 + g2)).reshape(g1.shape[0], -1).sum(axis=1)
    return float((areas * prod).sum())


def gradient_gap(areas, g1, g2):
    """int |grad u1 - grad u2|^2."""
    return float((areas * energy_density(g1 - g2)).sum())


# snapshot gradients the Cauchy oracle holds at once (0.66 MB each at ref 4)
CAUCHY_BLOCK = 8


def cauchy_supremum(areas, gradient_of, count):
    """sup over pairs i < j of gap(i, j) - 4 (E_i - E_j), and the largest gap.

    `gradient_of(k)` returns the gradient of snapshot k, in time order. The
    gradients of a block of CAUCHY_BLOCK consecutive snapshots are held while
    every later snapshot's gradient is computed in turn, so memory stays at
    CAUCHY_BLOCK + 1 gradients.
    """
    value = -math.inf
    max_gap = 0.0
    pairs = 0

    def pair(gi, gj):
        nonlocal value, max_gap, pairs
        gap = gradient_gap(areas, gi, gj)
        diff = energy_difference(areas, gi, gj)
        value = max(value, gap - 4.0 * diff)
        max_gap = max(max_gap, gap)
        pairs += 1

    for lo in range(0, count, CAUCHY_BLOCK):
        held = [gradient_of(i) for i in range(lo, min(lo + CAUCHY_BLOCK, count))]
        for a, gi in enumerate(held):
            for gj in held[a + 1:]:
                pair(gi, gj)
        for j in range(lo + CAUCHY_BLOCK, count):
            gj = gradient_of(j)
            for gi in held:
                pair(gi, gj)
    return value, max_gap, pairs


# -- target constraints ----------------------------------------------------------


def constraint_defect(target: dict, p):
    """Distance-like defect of points p from the target named by a config.

    sphere: | |p| - 1 |; torus3: | dist(p, tube centre circle) - r |;
    clifford: largest of | |(p1, p2)| - 1/sqrt(2) | and | |(p3, p4)| - 1/sqrt(2) |.
    """
    p = np.asarray(p, dtype=float)
    kind = target["kind"]
    if kind == "sphere":
        return np.abs(np.sqrt((p ** 2).sum(axis=-1)) - 1.0)
    if kind == "torus3":
        R, r = float(target.get("R", 2.0)), float(target.get("r", 1.0))
        rho = np.sqrt(p[..., 0] ** 2 + p[..., 1] ** 2)
        return np.abs(np.sqrt((rho - R) ** 2 + p[..., 2] ** 2) - r)
    if kind == "clifford":
        s = math.sqrt(0.5)
        a = np.sqrt(p[..., 0] ** 2 + p[..., 1] ** 2)
        b = np.sqrt(p[..., 2] ** 2 + p[..., 3] ** 2)
        return np.maximum(np.abs(a - s), np.abs(b - s))
    raise ValueError(f"no oracle constraint for target kind {kind!r}")


# -- Poisson problem with a closed-form solution -----------------------------------


def poisson_exact(x, y):
    """v = (1 - r^2)(1 + x y): zero on the unit circle."""
    return (1.0 - x * x - y * y) * (1.0 + x * y)


def poisson_source(x, y):
    """f = -Laplace(v) = 4 + 12 x y for the v of `poisson_exact`."""
    return 4.0 + 12.0 * x * y


def lumped_load(vertices, triangles, f_vertex):
    """<f, phi_i> by the vertex (lumped) rule: f(x_i) times a third of the
    areas of the triangles at vertex i."""
    areas = triangle_areas(vertices, triangles)
    mass = np.bincount(triangles.ravel(), weights=np.repeat(areas / 3.0, 3),
                       minlength=len(vertices))
    return mass * f_vertex


# -- radial maximal function ------------------------------------------------------------


class Bump:
    """Radial bump: value 2 on r <= 3/8, cubic decay 1 - 3s^2 + 2s^3 to 0 at
    r_out, unit mass; r_out comes from the mass condition
    2 pi r_p^2 + 4 pi (r_p w / 2 + 3 w^2 / 20) = 1 with w = r_out - r_p."""

    plateau = 2.0
    r_plateau = 0.375

    def __init__(self):
        c, rp = self.plateau, self.r_plateau
        # c pi rp^2 + 2 pi c (rp w / 2 + 3 w^2 / 20) = 1, a quadratic in w
        qa = 2.0 * math.pi * c * 3.0 / 20.0
        qb = 2.0 * math.pi * c * rp / 2.0
        qc = c * math.pi * rp * rp - 1.0
        w = (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)
        self.r_out = rp + w

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        s = np.clip((r - self.r_plateau) / (self.r_out - self.r_plateau), 0.0, 1.0)
        return np.where(r <= self.r_out, self.plateau * (1.0 - 3.0 * s * s + 2.0 * s ** 3), 0.0)


def scale_ladder(t0, h, per_octave=4, max_octaves=20):
    """Scales t0 2^(-k/per_octave), k < per_octave * octaves, with one octave
    per halving of t0 down to the mesh size h (at least one octave)."""
    if t0 <= h * 1e-9:
        return np.zeros(0)
    octaves = max(1, min(max_octaves, math.ceil(math.log2(max(t0 / h, 2.0)))))
    return t0 * 2.0 ** (-np.arange(octaves * per_octave) / per_octave)


def brute_maximal(vertices, triangles, f_cells, vertex_ids, bump=None):
    """f*(x) at the given vertices, summing the bump over every triangle.

    f*(x) = max(local average of |f| over the triangles at x, weighted by
    area; max over the scale ladder of |sum_T phi(|x - c_T| / t) f_T A_T| /
    sum_T phi(|x - c_T| / t) A_T), with t0 = 1 - |x| and h the longest edge.
    """
    bump = bump if bump is not None else Bump()
    p = vertices[triangles]
    centroids = (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0
    areas = triangle_areas(vertices, triangles)
    edges = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    h = float(np.sqrt((edges ** 2).sum(axis=1)).max())
    f = np.asarray(f_cells, dtype=float)
    out = np.empty(len(vertex_ids))
    for k, v in enumerate(vertex_ids):
        x = vertices[v]
        at_v = np.flatnonzero((triangles == v).any(axis=1))
        best = float((areas[at_v] * np.abs(f[at_v])).sum() / areas[at_v].sum())
        d = np.sqrt(((centroids - x) ** 2).sum(axis=1))
        for t in scale_ladder(1.0 - math.hypot(x[0], x[1]), h):
            w = bump(d / t) * areas
            denom = w.sum()
            if denom > 0.0:
                best = max(best, abs(float((w * f).sum())) / denom)
        out[k] = best
    return out
