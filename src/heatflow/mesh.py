"""Triangulated unit disk and the piecewise-linear vector calculus on it.

Vertices live on concentric rings (ring k of K at radius k/K with 6k
equispaced points), so the boundary ring sits exactly on the unit circle.
Strips between rings are zipped by angle and then Lawson-flipped to the
Delaunay configuration, which makes the P1 stiffness matrix an M-matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError, InputError, UsageError

MAX_REFINEMENT = 10
BASE_RINGS = 3


class DiskMesh:
    """Conforming triangulation of the unit disk with cached P1 operators.

    Treat instances as immutable after construction; every derived operator
    is computed lazily and shared.
    """

    def __init__(self, vertices, triangles, boundary, refinement):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary = np.ascontiguousarray(boundary, dtype=bool)
        self.refinement = int(refinement)
        self._orient_ccw()

    # -- geometry -----------------------------------------------------------

    def _orient_ccw(self):
        p = self.vertices[self.triangles]
        sgn = _signed_area2(p)
        flip = sgn < 0
        if np.any(flip):
            t = self.triangles[flip].copy()
            self.triangles[flip, 1] = t[:, 2]
            self.triangles[flip, 2] = t[:, 1]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @cached_property
    def tri_areas(self):
        return 0.5 * _signed_area2(self.vertices[self.triangles])

    @cached_property
    def area(self):
        return float(self.tri_areas.sum())

    @cached_property
    def centroids(self):
        return self.C @ self.vertices

    @cached_property
    def h(self):
        """Mesh size: maximum edge length."""
        p = self.vertices[self.triangles]
        e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        return float(np.sqrt((e ** 2).sum(axis=-1)).max())

    @cached_property
    def min_angle_deg(self):
        p = self.vertices[self.triangles]
        angles = []
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            ca = (a * b).sum(-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
            angles.append(np.degrees(np.arccos(np.clip(ca, -1.0, 1.0))))
        return float(np.min(angles))

    @cached_property
    def hat_gradients(self):
        """Gradients of the three hat functions per triangle, shape (nt, 3, 2)."""
        p = self.vertices[self.triangles]
        twoA = _signed_area2(p)[:, None]
        g = np.empty((self.n_triangles, 3, 2))
        for i in range(3):
            pj = p[:, (i + 1) % 3]
            pk = p[:, (i + 2) % 3]
            g[:, i, 0] = pj[:, 1] - pk[:, 1]
            g[:, i, 1] = pk[:, 0] - pj[:, 0]
        g /= twoA[:, :, None]
        return g

    @cached_property
    def interior(self):
        return ~self.boundary

    @cached_property
    def interior_idx(self):
        return np.flatnonzero(self.interior)

    @cached_property
    def boundary_idx(self):
        return np.flatnonzero(self.boundary)

    @cached_property
    def D(self):
        """P1 gradient, CSR (2 nt, nv): row 2t+a holds hat_gradients[t, :, a]."""
        nt = self.n_triangles
        cols = np.repeat(self.triangles[:, None, :], 2, axis=1).ravel()
        data = self.hat_gradients.transpose(0, 2, 1).ravel()
        return sp.csr_matrix((data, cols, np.arange(0, 6 * nt + 1, 3)),
                             shape=(2 * nt, self.n_vertices))

    @cached_property
    def C(self):
        """Centroid average, CSR (nt, nv): entries 1/3 at each triangle's vertices."""
        nt = self.n_triangles
        return sp.csr_matrix((np.full(3 * nt, 1.0 / 3.0), self.triangles.ravel(),
                              np.arange(0, 3 * nt + 1, 3)),
                             shape=(nt, self.n_vertices))

    def at_centroids(self, values):
        """Centroid averages C @ values of a vertex array with any payload."""
        return _along_rows(self.C, values)

    @cached_property
    def lumped_mass(self):
        """Integrals of the hat functions (exact): m = C^T a."""
        return self.C.T @ self.tri_areas

    @cached_property
    def stiffness(self):
        """P1 stiffness matrix K = D^T diag(a, a) D, CSR. It is formed as
        B^T B with B = diag(sqrt(a, a)) D, which keeps K exactly symmetric."""
        B = sp.diags(np.sqrt(np.repeat(self.tri_areas, 2))) @ self.D
        return (B.T @ B).tocsr()

    @cached_property
    def mass(self):
        """Consistent P1 mass matrix, CSR."""
        base = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
        mloc = self.tri_areas[:, None, None] * base[None, :, :]
        rows = np.repeat(self.triangles, 3, axis=1).ravel()
        cols = np.tile(self.triangles, (1, 3)).ravel()
        M = sp.coo_matrix((mloc.ravel(), (rows, cols)),
                          shape=(self.n_vertices, self.n_vertices))
        return M.tocsr()

    @cached_property
    def edges(self):
        """Unique undirected edges (ne, 2) and the incident-triangle count (ne,)."""
        t = self.triangles
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        e, counts = np.unique(e, axis=0, return_counts=True)
        return e, counts

    @cached_property
    def cell_to_vertex(self):
        """Sparse (nv, nt) scatter of per-triangle densities against hats,
        C^T diag(a): (cell_to_vertex @ f)_i = sum over incident t of (A_t/3) f_t."""
        return (self.C.T @ sp.diags(self.tri_areas)).tocsr()


def _along_rows(A, values):
    """Sparse A applied to the first axis of values (any trailing payload)."""
    values = np.asarray(values, dtype=float)
    out = A @ values.reshape(values.shape[0], -1)
    return out.reshape((A.shape[0],) + values.shape[1:])


def _signed_area2(p):
    """Twice the signed area of triangles given as (..., 3, 2) vertex arrays."""
    return ((p[..., 1, 0] - p[..., 0, 0]) * (p[..., 2, 1] - p[..., 0, 1])
            - (p[..., 2, 0] - p[..., 0, 0]) * (p[..., 1, 1] - p[..., 0, 1]))


# -- construction -------------------------------------------------------------


def build_disk_mesh(refinement: int) -> DiskMesh:
    """Build the concentric-ring disk mesh at the given refinement level.

    Ring count is BASE_RINGS * 2**refinement, so the mesh size roughly halves
    per level. Vertex ordering is deterministic (ring by ring, by angle).
    """
    if not isinstance(refinement, (int, np.integer)) or isinstance(refinement, bool):
        raise ConfigurationError(f"refinement must be an integer, got {refinement!r}")
    if refinement < 0 or refinement > MAX_REFINEMENT:
        raise ConfigurationError(
            f"refinement must lie in [0, {MAX_REFINEMENT}], got {refinement}")

    K = BASE_RINGS * (2 ** refinement)
    verts = [np.zeros((1, 2))]
    for k in range(1, K + 1):
        nk = 6 * k
        theta = 2.0 * np.pi * np.arange(nk) / nk
        r = k / K
        verts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    ring_start = [0] + list(np.cumsum([1] + [6 * k for k in range(1, K)]))
    vertices = np.concatenate(verts)

    tris = []
    for k in range(K):
        inner = _ring_indices(ring_start, k)
        outer = _ring_indices(ring_start, k + 1)
        tris.extend(_zip_strip(inner, outer))
    triangles = np.asarray(tris, dtype=np.int64)

    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[ring_start[K]:] = True

    triangles = _lawson_flips(vertices, triangles)
    order = np.lexsort((triangles[:, 2], triangles[:, 1], triangles[:, 0]))
    return DiskMesh(vertices, triangles[order], boundary, refinement)


def _ring_indices(ring_start, k):
    if k == 0:
        return np.array([0])
    n = 6 * k
    return np.arange(ring_start[k], ring_start[k] + n)


def _zip_strip(inner, outer):
    """Triangulate the annulus between two rings by merging on angle."""
    m, M = len(inner), len(outer)
    tris = []
    if m == 1:
        c = inner[0]
        for o in range(M):
            tris.append((c, outer[o], outer[(o + 1) % M]))
        return tris
    i = o = 0
    while i < m or o < M:
        adv_outer = o < M and (i == m or (o + 1) * m <= (i + 1) * M)
        if adv_outer:
            tris.append((inner[i % m], outer[o % M], outer[(o + 1) % M]))
            o += 1
        else:
            tris.append((inner[i % m], outer[o % M], inner[(i + 1) % m]))
            i += 1
    return tris


def _incircle_dets(vertices, quads):
    """Incircle determinants for quads (u, v, p, q): positive when q lies
    strictly inside the circumcircle of CCW triangle (u, v, p)."""
    a = vertices[quads[:, 0]]
    b = vertices[quads[:, 1]]
    c = vertices[quads[:, 2]]
    d = vertices[quads[:, 3]]
    ax, ay = (a - d).T
    bx, by = (b - d).T
    cx, cy = (c - d).T
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return (ax * (by * c2 - b2 * cy)
            - ay * (bx * c2 - b2 * cx)
            + a2 * (bx * cy - by * cx))


def _lawson_flips(vertices, triangles, max_sweeps=200):
    """Flip interior edges to the Delaunay configuration.

    Each sweep flips an independent set of violating edges, so the pass
    terminates quickly on the nearly-Delaunay ring mesh.
    """
    tris = np.asarray(triangles, dtype=np.int64).copy()
    neg = _signed_area2(vertices[tris]) < 0
    tris[neg] = tris[neg][:, [0, 2, 1]]
    for _ in range(max_sweeps):
        nt = len(tris)
        locs = np.concatenate([tris[:, [0, 1, 2]], tris[:, [1, 2, 0]],
                               tris[:, [2, 0, 1]]])
        owner = np.tile(np.arange(nt), 3)
        lo = np.minimum(locs[:, 0], locs[:, 1])
        hi = np.maximum(locs[:, 0], locs[:, 1])
        key = lo * (vertices.shape[0] + 1) + hi
        order = np.argsort(key, kind="stable")
        key_s, locs_s, owner_s = key[order], locs[order], owner[order]
        same = key_s[:-1] == key_s[1:]
        first = np.flatnonzero(same)
        # interior edges appear exactly twice; locs carry (u, v, opposite)
        q1, q2 = locs_s[first], locs_s[first + 1]
        t1, t2 = owner_s[first], owner_s[first + 1]
        # orientation: triangle (u, v, p) is CCW with p = q1[:,2]; the twin
        # lists the edge reversed, so q = q2[:,2] lies on the other side.
        quads = np.column_stack([q1[:, 0], q1[:, 1], q1[:, 2], q2[:, 2]])
        dets = _incircle_dets(vertices, quads)
        span = np.linalg.norm(vertices[quads[:, 0]] - vertices[quads[:, 3]], axis=1)
        bad = dets > 1e-12 * np.maximum(span, 1e-30) ** 4
        if not np.any(bad):
            break
        touched = np.zeros(nt, dtype=bool)
        flips = 0
        for e in np.flatnonzero(bad):
            i, j = t1[e], t2[e]
            if touched[i] or touched[j]:
                continue
            u, v, p, q = quads[e]
            tris[i] = (p, u, q)
            tris[j] = (q, v, p)
            touched[i] = touched[j] = True
            flips += 1
        if flips == 0:
            break
    return tris


# -- fields -------------------------------------------------------------------


@dataclass
class Field:
    """Vertex-based mesh function with scalar, vector or matrix payload."""

    mesh: DiskMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.mesh.n_vertices:
            raise UsageError(
                f"field has {self.values.shape[0]} values for "
                f"{self.mesh.n_vertices} vertices")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("field contains non-finite values")

    @property
    def payload(self):
        return self.values.shape[1:]


@dataclass
class CellVectorField:
    """Per-triangle 2-vector, optionally carrying a vector/matrix payload."""

    mesh: DiskMesh
    values: np.ndarray  # (nt, 2, *payload)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.mesh.n_triangles or self.values.shape[1] != 2:
            raise UsageError(
                f"cell field must have shape (nt, 2, ...), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("cell field contains non-finite values")

    @property
    def payload(self):
        return self.values.shape[2:]


def gradient(f: Field) -> CellVectorField:
    """Exact per-triangle gradient of the piecewise-linear interpolant, D @ f."""
    mesh = f.mesh
    vals = _along_rows(mesh.D, f.values)
    return CellVectorField(mesh, vals.reshape((mesh.n_triangles, 2) + f.payload))


def perp_gradient(f: Field) -> CellVectorField:
    """Gradient rotated by +pi/2: (-d_y f, d_x f) per triangle."""
    return rotate_cell_field(gradient(f))


def rotate_cell_field(F: CellVectorField) -> CellVectorField:
    vals = np.stack([-F.values[:, 1], F.values[:, 0]], axis=1)
    return CellVectorField(F.mesh, vals)


def jacobian_product(a: Field, b: Field) -> np.ndarray:
    """Per-triangle Jacobian grad(a) . perp_grad(b) = a_y b_x - a_x b_y."""
    if a.mesh is not b.mesh:
        raise UsageError("jacobian_product requires fields on the same mesh")
    if a.payload != () or b.payload != ():
        raise UsageError("jacobian_product expects scalar fields")
    ga = gradient(a).values
    gb = gradient(b).values
    return ga[:, 1] * gb[:, 0] - ga[:, 0] * gb[:, 1]


def norms(f) -> dict:
    """L1 / L2 / Linf norms of a Field or CellVectorField.

    The L2 norm of a Field integrates the quadratic interpolant exactly
    (consistent-mass quadrature); L1 uses the vertex rule.
    """
    if isinstance(f, Field):
        nt = f.mesh.n_triangles
        axes = tuple(range(1, f.values.ndim))
        vtx = f.values[f.mesh.triangles]
        sq = (vtx ** 2).reshape(nt, 3, -1).sum(axis=2)  # (nt, 3)
        cross = (vtx[:, 0] * vtx[:, 1] + vtx[:, 1] * vtx[:, 2]
                 + vtx[:, 2] * vtx[:, 0]).reshape(nt, -1).sum(axis=1)
        a = f.mesh.tri_areas
        l2sq = float((a / 6.0 * (sq.sum(axis=1) + cross)).sum())
        mag = np.sqrt((f.values ** 2).sum(axis=axes))
        l1 = float((a / 3.0 * mag[f.mesh.triangles].sum(axis=1)).sum())
        return {"L1": l1, "L2": math.sqrt(max(l2sq, 0.0)), "Linf": float(mag.max())}
    if isinstance(f, CellVectorField):
        axes = tuple(range(1, f.values.ndim))
        mag_sq = (f.values ** 2).sum(axis=axes)
        a = f.mesh.tri_areas
        l2sq = float((a * mag_sq).sum())
        l1 = float((a * np.sqrt(mag_sq)).sum())
        return {"L1": l1, "L2": math.sqrt(max(l2sq, 0.0)),
                "Linf": float(np.sqrt(mag_sq.max()))}
    raise UsageError(f"norms expects a Field or CellVectorField, got {type(f)!r}")


def _weighted_adjoint(mesh: DiskMesh, F: np.ndarray) -> np.ndarray:
    """D^T (a F) = sum over triangles of A_t F . grad(phi_i), for F (nt, 2, ...)."""
    aF = mesh.tri_areas.reshape((-1,) + (1,) * (F.ndim - 1)) * F
    return _along_rows(mesh.D.T, aF.reshape((2 * mesh.n_triangles,) + F.shape[2:]))


def div_load(mesh: DiskMesh, F: np.ndarray) -> np.ndarray:
    """<div F, phi_i> = -int F . grad(phi_i) = -D^T (a F) for a cell field F."""
    return -_weighted_adjoint(mesh, F)


def curl_load(mesh: DiskMesh, F: np.ndarray) -> np.ndarray:
    """<curl F, phi_i> = -int F . perp_grad(phi_i) = D^T (a rot F), with
    rot F = (-F_y, F_x), for a cell field F."""
    return _weighted_adjoint(mesh, np.stack([-F[:, 1], F[:, 0]], axis=1))


def weak_div_curl(F: CellVectorField):
    """Mass-lumped weak divergence and curl as vertex fields.

    Values are the distributional pairings against hat functions divided by
    the lumped mass; they approximate div/curl at interior vertices only.
    """
    mesh = F.mesh
    m = mesh.lumped_mass.reshape((-1,) + (1,) * len(F.payload))
    return (Field(mesh, div_load(mesh, F.values) / m),
            Field(mesh, curl_load(mesh, F.values) / m))


def interpolate(mesh: DiskMesh, g) -> Field:
    """Vertex sampling of a closed-form map g(x, y) -> R^k."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    try:
        vals = np.asarray(g(x, y), dtype=float)
        if vals.shape[0] != mesh.n_vertices:
            vals = np.moveaxis(vals, -1, 0) if vals.shape[-1] == mesh.n_vertices else None
        if vals is None:
            raise ValueError
    except Exception:
        vals = np.asarray([g(xi, yi) for xi, yi in mesh.vertices], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InputError("interpolated map produced non-finite samples")
    return Field(mesh, vals)


# -- plain-text mesh exchange --------------------------------------------------


def save_mesh(mesh: DiskMesh, path):
    """Write `nv nt`, vertex lines `x y flag`, triangle lines `i j k`."""
    lines = [f"{mesh.n_vertices} {mesh.n_triangles}"]
    for (x, y), b in zip(mesh.vertices, mesh.boundary):
        lines.append(f"{float(x)!r} {float(y)!r} {int(b)}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_mesh(path) -> DiskMesh:
    tokens = Path(path).read_text().split("\n")
    header = tokens[0].split()
    nv, nt = int(header[0]), int(header[1])
    verts = np.empty((nv, 2))
    flags = np.empty(nv, dtype=bool)
    for i in range(nv):
        x, y, b = tokens[1 + i].split()
        verts[i] = (float(x), float(y))
        flags[i] = bool(int(b))
    tris = np.empty((nt, 3), dtype=np.int64)
    for t in range(nt):
        tris[t] = [int(s) for s in tokens[1 + nv + t].split()]
    return DiskMesh(verts, tris, flags, refinement=-1)
