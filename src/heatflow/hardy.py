"""Local Hardy space machinery: bump profile, radial maximal function, h1 norm.

The maximal function is evaluated against mass-normalized mollifier stencils
on triangle centroids, over a geometric scale ladder refining each dyadic
octave of 1 - |x| (octave-only sampling undershoots the scale sup too much
to track a dense-scale reference). A degenerate smallest scale, the
area-weighted local average of |f|, keeps ||f||_L1 <= ||f||_h1 exact at the
quadrature level and covers boundary vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .elliptic import psi_energy_density
from .errors import UsageError
from .mesh import DiskMesh, Field, energy_density, gradient, perp_gradient

PLATEAU_TARGET = 2.0
PLATEAU_RADIUS = 0.375          # phi equals the plateau on B_{3/8}
SUPPORT_LIMIT = 0.5             # support must stay inside B_{1/2}
EDGE_PAD = 0.01
GRAD_LIMIT = 100.0
SCALES_PER_OCTAVE = 4
MAX_OCTAVES = 20
MAX_SNAPSHOTS = 8               # Hardy rows per h1_energy_check

# transition profile s(t) = 1 - 3t^2 + 2t^3: int_0^1 s = 1/2, int_0^1 t s = 3/20
_I1 = 0.5
_I2 = 0.15


@dataclass(frozen=True)
class BumpProfile:
    """Radial profile: plateau, monotone cubic transition, unit mass."""

    plateau: float
    r_plateau: float
    r_out: float
    adjusted: bool

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        w = self.r_out - self.r_plateau
        t = np.clip((r - self.r_plateau) / w, 0.0, 1.0)
        s = 1.0 - 3.0 * t * t + 2.0 * t ** 3
        return np.where(r <= self.r_out, self.plateau * s, 0.0)

    @property
    def grad_max(self):
        return 1.5 * self.plateau / (self.r_out - self.r_plateau)

    def mass(self):
        """Exact integral over the plane (closed form of the radial pieces)."""
        w = self.r_out - self.r_plateau
        return self.plateau * math.pi * self.r_plateau ** 2 \
            + 2.0 * math.pi * self.plateau * (self.r_plateau * w * _I1 + w * w * _I2)


def build_bump() -> BumpProfile:
    """Profile with value 2 on B_{3/8}, cubic decay inside B_{1/2}, unit mass.

    The transition width solving the mass constraint exists for plateau 2; if
    it ever collided with the support limit the plateau would be adjusted
    instead (flagged via `adjusted`).
    """
    c = PLATEAU_TARGET
    rp = PLATEAU_RADIUS
    target = (1.0 - c * math.pi * rp * rp) / (2.0 * math.pi * c)
    disc = (rp * _I1) ** 2 + 4.0 * _I2 * target
    w = (-rp * _I1 + math.sqrt(disc)) / (2.0 * _I2)
    adjusted = False
    w_max = SUPPORT_LIMIT - EDGE_PAD - rp
    if not (0.0 < w <= w_max):
        w = w_max
        c = 1.0 / (math.pi * rp * rp + 2.0 * math.pi * (rp * w * _I1 + w * w * _I2))
        adjusted = True
    prof = BumpProfile(c, rp, rp + w, adjusted)
    if prof.grad_max > GRAD_LIMIT:
        raise UsageError("bump gradient bound violated; widen the transition")
    return prof


class HardyEstimator:
    """Radial maximal function and local Hardy norm on a fixed mesh.

    Each vertex's stencil, the triangle centroids within the outermost
    support r_out * (1 - |x|), is sorted by distance once: int32 indices and
    float64 distances, 12 B per entry. At a scale s two `searchsorted` cuts
    split it. Entries with d <= r_plateau * s lie on the bump's plateau, so
    their share of the numerator and the denominator is the plateau times a
    prefix sum of f * a and of a over the sorted stencil. Only the annulus up
    to r_out * s evaluates the cubic profile; entries beyond r_out * s are
    not read at that scale. Stencils are cached after the first evaluation
    when the mesh is small enough (about 34 MB at refinement 4); larger
    meshes (refinement 5) rebuild them on every call.
    """

    CACHE_LIMIT = 2 * 10 ** 7

    def __init__(self, mesh: DiskMesh):
        self.mesh = mesh
        self.bump = build_bump()
        self._tree = cKDTree(mesh.centroids)
        self._radii = 1.0 - np.linalg.norm(mesh.vertices, axis=1)
        self._stencils = None

    def _scales(self, t0):
        """Geometric ladder refining each dyadic octave of t0 down to ~h."""
        h = self.mesh.h
        if t0 <= h * 1e-9:
            return np.zeros(0)
        octaves = max(1, min(MAX_OCTAVES,
                             math.ceil(math.log2(max(t0 / h, 2.0)))))
        S = SCALES_PER_OCTAVE
        exponents = np.arange(octaves * S) / S
        return t0 * (2.0 ** -exponents)

    def _vertex_stencil(self, v, cx, cy):
        """Centroid indices and distances within the outermost support of
        vertex v, nearest first."""
        if self._stencils is not None and self._stencils[v] is not None:
            return self._stencils[v]
        x, y = self.mesh.vertices[v]
        rad = self.bump.r_out * self._radii[v]
        near = self._tree.query_ball_point((x, y), rad + 1e-12,
                                           return_sorted=False)
        idx = np.fromiter(near, dtype=np.int32, count=len(near))
        d = np.hypot(cx[idx] - x, cy[idx] - y)
        order = np.argsort(d)
        out = (idx[order], d[order])
        if self._stencils is not None:
            self._stencils[v] = out
        return out

    def _maybe_enable_cache(self):
        if self._stencils is None:
            est = 0.2 * self.mesh.n_vertices * self.mesh.n_triangles / 6.0
            if est < self.CACHE_LIMIT:
                self._stencils = [None] * self.mesh.n_vertices

    def _mollify(self, fa, a, d, scales):
        """Numerators sum phi(d/s) f a and denominators sum phi(d/s) a at
        every scale s, over a stencil sorted by distance d."""
        bump = self.bump
        kp = np.searchsorted(d, bump.r_plateau * scales, side="right")
        k = np.searchsorted(d, bump.r_out * scales, side="right")
        num = bump.plateau * _prefix_sums(fa, kp)
        den = bump.plateau * _prefix_sums(a, kp)
        lens = k - kp
        n = int(lens.sum())
        if n:
            # the annuli kp_j <= i < k_j of every scale j, end to end
            which = np.repeat(np.arange(scales.size), lens)
            pos = np.arange(n) + np.repeat(kp - (np.cumsum(lens) - lens), lens)
            w = bump(d[pos] / scales[which])
            num += np.bincount(which, w * fa[pos], minlength=scales.size)
            den += np.bincount(which, w * a[pos], minlength=scales.size)
        return num, den

    def maximal(self, f_cells) -> Field:
        """f*(x) at every vertex: max over the scale ladder of the normalized
        mollifications |phi_t * f|(x), floored by the local average of |f|."""
        f = np.asarray(f_cells, dtype=float)
        if f.shape != (self.mesh.n_triangles,):
            raise UsageError("maximal expects a per-triangle scalar array")
        self._maybe_enable_cache()
        mesh = self.mesh
        areas = mesh.tri_areas
        fa = f * areas
        cx, cy = np.array(mesh.centroids.T)
        # area-weighted average of |f| over the triangles around each vertex
        out = (mesh.cell_to_vertex @ np.abs(f)) / mesh.lumped_mass
        for v in range(mesh.n_vertices):
            scales = self._scales(self._radii[v])
            if scales.size:
                idx, d = self._vertex_stencil(v, cx, cy)
                if idx.size:
                    num, den = self._mollify(fa[idx], areas[idx], d, scales)
                    valid = den > 0.0
                    if np.any(valid):
                        out[v] = max(out[v],
                                     (np.abs(num[valid]) / den[valid]).max())
        return Field(mesh, out)

    def h1_norm(self, f_cells) -> float:
        """Local Hardy norm: L1 norm of the radial maximal function."""
        fstar = self.maximal(f_cells)
        return float((self.mesh.lumped_mass * fstar.values).sum())


def _prefix_sums(x, k):
    """sum(x[:k_j]) for every cut k_j, from one running sum."""
    m = k.max()
    c = np.zeros(m + 1)
    np.cumsum(x[:m], out=c[1:])
    return c[k]


def pointwise_lower_bound_check(u: Field, gauge_frame, hodge, probes=None,
                                density_floor: float = 1e-12) -> dict:
    """Check (perp_grad(eta) + grad(zeta)) . (P^T(x) grad u)(y) >= |grad u|^2(y)/4
    at triangle centroids y near frozen probe centers x."""
    mesh = u.mesh
    if probes is None:
        from .gauge import default_probes
        probes = default_probes()
    FH = perp_gradient(hodge.eta).values + gradient(hodge.zeta).values
    gu = gradient(u).values
    dens = energy_density(gu)
    cent = mesh.centroids
    min_ratio = None
    checked = 0
    below_quarter = 0
    below_020 = 0
    skipped = 0
    for (x, r) in probes:
        x = np.asarray(x, dtype=float)
        if np.linalg.norm(x) + 2.0 * r > 1.0 + 1e-12:
            skipped += 1
            continue
        vx = int(np.argmin(((mesh.vertices - x) ** 2).sum(axis=1)))
        Px = gauge_frame.P.values[vx]
        sel = np.flatnonzero(
            (((cent - x) ** 2).sum(axis=1) <= r * r) & (dens > density_floor))
        if sel.size == 0:
            continue
        proj = np.einsum("ji,taj->tai", Px, gu[sel])
        lhs = (FH[sel] * proj).sum(axis=(1, 2))
        ratios = lhs / dens[sel]
        checked += sel.size
        below_quarter += int((ratios < 0.25).sum())
        below_020 += int((ratios < 0.20).sum())
        m = float(ratios.min())
        min_ratio = m if min_ratio is None else min(min_ratio, m)
    return {
        "min_ratio": min_ratio,
        "centroids_checked": checked,
        "below_quarter": below_quarter,
        "below_020": below_020,
        "probes_skipped": skipped,
    }


def h1_row(est: HardyEstimator, u: Field, t: float) -> dict:
    """Hardy control of one map's energy density: ||grad u|^2||_h1, its ratio
    to the raw energy, and the measured constant of the Dirichlet-problem
    estimate (||psi||_inf + ||grad psi||_2) / ||density||_h1."""
    dens = energy_density(gradient(u).values)
    h1 = est.h1_norm(dens)
    e_raw = float((u.mesh.tri_areas * dens).sum())
    combo = psi_energy_density(u).diagnostics["psi_linf_plus_grad_l2"]
    return {
        "t": float(t),
        "h1_density": h1,
        "h1_over_energy": h1 / e_raw if e_raw > 1e-14 else 0.0,
        "cdsthm_C": combo / h1 if h1 > 1e-14 else 0.0,
    }


def h1_energy_check(traj, eps0: float) -> dict:
    """One h1_row per snapshot at or after T0, at most MAX_SNAPSHOTS of them
    spread evenly over that range."""
    t0 = traj.detected_t0()
    if t0 is None:
        return {"skipped": "kinetic trigger T0 was not detected", "rows": []}
    snaps = [s for s in traj.snapshots if s.t >= t0 - 1e-12]
    if not snaps:
        return {"skipped": "no snapshots at or after T0", "rows": []}
    if len(snaps) > MAX_SNAPSHOTS:
        pick = np.linspace(0, len(snaps) - 1, MAX_SNAPSHOTS).round().astype(int)
        snaps = [snaps[i] for i in sorted(set(pick.tolist()))]
    est = HardyEstimator(traj.mesh)
    return {"skipped": None, "rows": [h1_row(est, s.u, s.t) for s in snaps]}
