"""Closed target manifolds in R^n: projection, tangent splitting, curvature.

The second fundamental form follows the projection-Hessian convention
(unit sphere: A(p)(X, Y) = -<X, Y> p). The flow nonlinearity and the
antisymmetric potential use the opposite sign, which is the one that makes
-Laplace(u) = Omega . grad(u) hold for harmonic maps; see
`curvature_flow_term` and `assemble_omega`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MedialAxisError, UsageError
from .mesh import DiskMesh, Field, gradient

_ON_MANIFOLD_TOL = 1e-8
_TANGENT_TOL = 1e-8


class TargetManifold:
    """Base class: subclasses provide project / normal frame / curvature tensor."""

    kind = "generic"
    n = 0          # ambient dimension
    reach = 0.0    # projection well-defined within this distance

    # subclass API ----------------------------------------------------------

    def project(self, p):
        raise NotImplementedError

    def normal_frame(self, p):
        """Orthonormal basis of the normal space, shape (..., k, n)."""
        raise NotImplementedError

    def curvature_tensor(self, p):
        """Projection-Hessian tensor T[..., i, j, l] with A(X,Y)^i = T^i_jl X^j Y^l."""
        raise NotImplementedError

    def constraint_violation(self, p):
        """Distance-like defect of p from the manifold, shape (...)."""
        p = np.asarray(p, dtype=float)
        q = self.project(p)
        return np.linalg.norm(p - q, axis=-1)

    def sample(self, rng, count):
        raise UsageError(f"{self.kind} manifold has no built-in sampler")

    def sff_sup_bound(self):
        """Upper bound for |A(X, Y)| over unit tangent vectors."""
        raise NotImplementedError

    # shared derived operations ----------------------------------------------

    def _require_on(self, p):
        viol = np.max(self.constraint_violation(p)) if np.asarray(p).size else 0.0
        if viol > _ON_MANIFOLD_TOL:
            raise UsageError(
                f"point off the manifold by {viol:.2e} (tol {_ON_MANIFOLD_TOL:g})")

    def tangent_project(self, p, v):
        """Remove the normal component of v at p (p must lie on the manifold)."""
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        self._require_on(p)
        return self._tangent_project_unchecked(p, v)

    def _tangent_project_unchecked(self, p, v):
        nf = self.normal_frame(p)
        coeff = np.einsum("...kn,...n->...k", nf, v)
        return v - np.einsum("...k,...kn->...n", coeff, nf)

    def normal_component(self, p, v):
        nf = self.normal_frame(p)
        coeff = np.einsum("...kn,...n->...k", nf, v)
        return np.einsum("...k,...kn->...n", coeff, nf)

    def second_fundamental_form(self, p, X, Y):
        """A(p)(X, Y) for tangent X, Y; symmetric, normal-valued.

        Raises UsageError when p is off the manifold or X, Y fail the
        tangency tolerance.
        """
        p = np.asarray(p, dtype=float)
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        self._require_on(p)
        for v in (X, Y):
            nrm = np.linalg.norm(v, axis=-1)
            dev = np.linalg.norm(self.normal_component(p, v), axis=-1)
            if np.max(dev - _TANGENT_TOL * np.maximum(nrm, 1.0)) > 0:
                raise UsageError("input vector is not tangent within tolerance")
        T = self.curvature_tensor(p)
        return np.einsum("...ijl,...j,...l->...i", T, X, Y)

    def omega_tensor(self, p):
        """Antisymmetrized curvature tensor Theta^i_zl with
        Omega^i_z = Theta^i_zl grad(u^l); sign chosen so that harmonic maps
        satisfy -Laplace(u) = Omega . grad(u)."""
        T = self.curvature_tensor(p)
        return -(T - np.swapaxes(T, -3, -2))

    def curvature_flow_term(self, p, grads):
        """Sum over the two gradient slots of the flow nonlinearity
        A(u)(grad u, grad u) as it appears in u_t = Laplace(u) + A(...)
        (unit sphere: |grad u|^2 u). `grads` has shape (..., 2, n).

        Subclasses override with structured closed forms; this generic
        contraction is the reference path.
        """
        T = self.curvature_tensor(p)
        return -np.einsum("...ijl,...aj,...al->...i", T, grads, grads,
                          optimize=True)


# -- concrete targets ----------------------------------------------------------


class Sphere(TargetManifold):
    """Unit sphere S^{n-1} in R^n."""

    kind = "sphere"

    def __init__(self, n=3):
        if n < 2:
            raise ConfigurationError("sphere needs ambient dimension >= 2")
        self.n = int(n)
        self.reach = 1.0

    def project(self, p):
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1)
        if np.any(r < 1e-12):
            raise MedialAxisError("cannot project the sphere center")
        return p / r[..., None]

    def normal_frame(self, p):
        p = np.asarray(p, dtype=float)
        return p[..., None, :]

    def curvature_tensor(self, p):
        p = np.asarray(p, dtype=float)
        eye = np.eye(self.n)
        proj = eye - p[..., :, None] * p[..., None, :]
        return -proj[..., None, :, :] * p[..., :, None, None]

    def constraint_violation(self, p):
        p = np.asarray(p, dtype=float)
        return np.abs(np.linalg.norm(p, axis=-1) - 1.0)

    def sample(self, rng, count):
        g = rng.standard_normal((count, self.n))
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def sff_sup_bound(self):
        return 1.0

    def curvature_flow_term(self, p, grads):
        dots = np.einsum("...n,...an->...a", p, grads)
        dens = (grads ** 2).sum(axis=(-1, -2)) - (dots ** 2).sum(axis=-1)
        return dens[..., None] * p

    def base_point(self):
        p = np.zeros(self.n)
        p[-1] = 1.0
        return p


class RevolutionTorus(TargetManifold):
    """Torus of revolution in R^3 with center radius R and tube radius r."""

    kind = "torus3"
    n = 3

    def __init__(self, R=2.0, r=1.0):
        if not (R > r > 0):
            raise ConfigurationError("torus3 requires R > r > 0")
        self.R = float(R)
        self.r = float(r)
        self.reach = min(self.r, self.R - self.r)

    def _geometry(self, p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        if np.any(rho < 1e-12):
            raise MedialAxisError("point on the axis of revolution")
        rho_hat = np.stack([p[..., 0] / rho, p[..., 1] / rho,
                            np.zeros_like(rho)], axis=-1)
        center = self.R * rho_hat
        d = p - center
        dist = np.linalg.norm(d, axis=-1)
        if np.any(dist < 1e-12):
            raise MedialAxisError("point on the tube center circle")
        return rho, rho_hat, center, d, dist

    def project(self, p):
        _, _, center, d, dist = self._geometry(p)
        return center + self.r * d / dist[..., None]

    def _angles(self, p):
        """cos/sin of the tube angle and the radial/azimuthal unit vectors."""
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        rho_hat = np.stack([p[..., 0] / rho, p[..., 1] / rho,
                            np.zeros_like(rho)], axis=-1)
        phi_hat = np.stack([-p[..., 1] / rho, p[..., 0] / rho,
                            np.zeros_like(rho)], axis=-1)
        cos_t = (rho - self.R) / self.r
        sin_t = p[..., 2] / self.r
        return cos_t, sin_t, rho_hat, phi_hat

    def normal_frame(self, p):
        cos_t, sin_t, rho_hat, _ = self._angles(p)
        zhat = np.zeros_like(rho_hat)
        zhat[..., 2] = 1.0
        n = cos_t[..., None] * rho_hat + sin_t[..., None] * zhat
        return n[..., None, :]

    def curvature_tensor(self, p):
        cos_t, sin_t, rho_hat, phi_hat = self._angles(p)
        zhat = np.zeros_like(rho_hat)
        zhat[..., 2] = 1.0
        n = cos_t[..., None] * rho_hat + sin_t[..., None] * zhat
        e_theta = -sin_t[..., None] * rho_hat + cos_t[..., None] * zhat
        rho = self.R + self.r * cos_t
        k_theta = 1.0 / self.r
        k_phi = cos_t / rho
        quad = (k_theta * np.ones_like(cos_t))[..., None, None] \
            * e_theta[..., :, None] * e_theta[..., None, :] \
            + k_phi[..., None, None] * phi_hat[..., :, None] * phi_hat[..., None, :]
        return -quad[..., None, :, :] * n[..., :, None, None]

    def constraint_violation(self, p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        return np.abs(np.hypot(rho - self.R, p[..., 2]) - self.r)

    def sample(self, rng, count):
        theta = rng.uniform(0, 2 * np.pi, count)
        phi = rng.uniform(0, 2 * np.pi, count)
        rho = self.R + self.r * np.cos(theta)
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi),
                                self.r * np.sin(theta)])

    def sff_sup_bound(self):
        return max(1.0 / self.r, 1.0 / (self.R - self.r))

    def curvature_flow_term(self, p, grads):
        cos_t, sin_t, rho_hat, phi_hat = self._angles(p)
        zhat = np.zeros_like(rho_hat)
        zhat[..., 2] = 1.0
        n = cos_t[..., None] * rho_hat + sin_t[..., None] * zhat
        e_theta = -sin_t[..., None] * rho_hat + cos_t[..., None] * zhat
        dt = np.einsum("...n,...an->...a", e_theta, grads)
        dp = np.einsum("...n,...an->...a", phi_hat, grads)
        coef = (dt ** 2).sum(axis=-1) / self.r \
            + (dp ** 2).sum(axis=-1) * cos_t / (self.R + self.r * cos_t)
        return coef[..., None] * n

    def base_point(self):
        return np.array([self.R + self.r, 0.0, 0.0])


class CliffordTorus(TargetManifold):
    """Flat torus {(cos a, sin a, cos b, sin b)/sqrt(2)} in R^4."""

    kind = "clifford"
    n = 4

    def __init__(self):
        self.reach = 1.0 / np.sqrt(2.0)

    def project(self, p):
        p = np.asarray(p, dtype=float)
        r12 = np.linalg.norm(p[..., :2], axis=-1)
        r34 = np.linalg.norm(p[..., 2:], axis=-1)
        if np.any(r12 < 1e-12) or np.any(r34 < 1e-12):
            raise MedialAxisError("point on a coordinate 2-plane of the medial axis")
        s = 1.0 / np.sqrt(2.0)
        return np.concatenate([s * p[..., :2] / r12[..., None],
                               s * p[..., 2:] / r34[..., None]], axis=-1)

    def normal_frame(self, p):
        p = np.asarray(p, dtype=float)
        s = np.sqrt(2.0)
        n1 = np.concatenate([s * p[..., :2], np.zeros_like(p[..., 2:])], axis=-1)
        n2 = np.concatenate([np.zeros_like(p[..., :2]), s * p[..., 2:]], axis=-1)
        return np.stack([n1, n2], axis=-2)

    def curvature_tensor(self, p):
        p = np.asarray(p, dtype=float)
        s = np.sqrt(2.0)
        zeros = np.zeros_like(p[..., 0])
        e1 = np.stack([-s * p[..., 1], s * p[..., 0], zeros, zeros], axis=-1)
        e2 = np.stack([zeros, zeros, -s * p[..., 3], s * p[..., 2]], axis=-1)
        n1 = np.stack([s * p[..., 0], s * p[..., 1], zeros, zeros], axis=-1)
        n2 = np.stack([zeros, zeros, s * p[..., 2], s * p[..., 3]], axis=-1)
        T = -s * (n1[..., :, None, None] * (e1[..., :, None] * e1[..., None, :])[..., None, :, :]
                  + n2[..., :, None, None] * (e2[..., :, None] * e2[..., None, :])[..., None, :, :])
        return T

    def constraint_violation(self, p):
        p = np.asarray(p, dtype=float)
        s = 1.0 / np.sqrt(2.0)
        r12 = np.linalg.norm(p[..., :2], axis=-1)
        r34 = np.linalg.norm(p[..., 2:], axis=-1)
        return np.hypot(r12 - s, r34 - s)

    def sample(self, rng, count):
        a = rng.uniform(0, 2 * np.pi, count)
        b = rng.uniform(0, 2 * np.pi, count)
        s = 1.0 / np.sqrt(2.0)
        return np.column_stack([s * np.cos(a), s * np.sin(a),
                                s * np.cos(b), s * np.sin(b)])

    def sff_sup_bound(self):
        return np.sqrt(2.0)

    def curvature_flow_term(self, p, grads):
        s = np.sqrt(2.0)
        zeros = np.zeros_like(p[..., 0])
        e1 = np.stack([-s * p[..., 1], s * p[..., 0], zeros, zeros], axis=-1)
        e2 = np.stack([zeros, zeros, -s * p[..., 3], s * p[..., 2]], axis=-1)
        n1 = np.stack([s * p[..., 0], s * p[..., 1], zeros, zeros], axis=-1)
        n2 = np.stack([zeros, zeros, s * p[..., 2], s * p[..., 3]], axis=-1)
        d1 = np.einsum("...n,...an->...a", e1, grads)
        d2 = np.einsum("...n,...an->...a", e2, grads)
        return s * ((d1 ** 2).sum(axis=-1)[..., None] * n1
                    + (d2 ** 2).sum(axis=-1)[..., None] * n2)

    def base_point(self):
        s = 1.0 / np.sqrt(2.0)
        return np.array([s, 0.0, s, 0.0])


class LevelSetManifold(TargetManifold):
    """Generic closed manifold {phi(p) = 0} with projection by constrained descent.

    phi maps R^n -> R^k; the Jacobian is supplied or taken by central
    differences. The curvature tensor comes from second differences of the
    projection map.
    """

    kind = "levelset"

    def __init__(self, phi, n, reach, jac=None, sampler=None, fd_step=None):
        self.phi = phi
        self.n = int(n)
        self.reach = float(reach)
        self._jac = jac
        self._sampler = sampler
        self.fd_step = fd_step if fd_step is not None else 1e-5 * self.reach

    def _phi(self, p):
        return np.atleast_1d(np.asarray(self.phi(np.asarray(p, dtype=float)),
                                        dtype=float))

    def _jacobian(self, p):
        if self._jac is not None:
            return np.atleast_2d(np.asarray(self._jac(p), dtype=float))
        h = 1e-7 * max(self.reach, 1.0)
        cols = []
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = h
            cols.append((self._phi(p + e) - self._phi(p - e)) / (2 * h))
        return np.column_stack(cols)

    def _project_one(self, p, tol=1e-12, max_iter=50):
        q = np.array(p, dtype=float)
        for _ in range(max_iter):
            val = self._phi(q)
            J = self._jacobian(q)
            gram = J @ J.T
            try:
                lam = np.linalg.solve(gram, val)
            except np.linalg.LinAlgError:
                raise MedialAxisError("degenerate constraint Jacobian during projection")
            newton = -J.T @ lam
            resid = q - p
            tang = -(resid - J.T @ np.linalg.solve(gram, J @ resid))
            step = newton + tang
            damping = 1.0
            base = np.linalg.norm(val) + np.linalg.norm(tang)
            for _ in range(20):
                trial = q + damping * step
                merit = np.linalg.norm(self._phi(trial)) \
                    + np.linalg.norm(self._tangent_defect(trial, p))
                if merit <= base * (1 - 1e-4 * damping) + tol:
                    break
                damping *= 0.5
            q = q + damping * step
            if np.linalg.norm(step) * damping < tol and np.linalg.norm(val) < tol:
                break
        if np.linalg.norm(self._phi(q)) > 1e-9:
            raise MedialAxisError("projection iteration failed to converge")
        return q

    def _tangent_defect(self, q, p):
        J = self._jacobian(q)
        gram = J @ J.T
        r = q - p
        return r - J.T @ np.linalg.solve(gram, J @ r)

    def project(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            return self._project_one(p)
        flat = p.reshape(-1, self.n)
        out = np.array([self._project_one(q) for q in flat])
        return out.reshape(p.shape)

    def normal_frame(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 1:
            J = self._jacobian(p)
            q, _ = np.linalg.qr(J.T)
            return q.T
        flat = p.reshape(-1, self.n)
        frames = np.array([self.normal_frame(q) for q in flat])
        return frames.reshape(p.shape[:-1] + frames.shape[-2:])

    def _tangent_frame(self, p):
        nf = self.normal_frame(p)
        full = np.eye(self.n)
        basis = []
        for v in full:
            w = v - nf.T @ (nf @ v)
            for b in basis:
                w = w - b * (b @ w)
            nrm = np.linalg.norm(w)
            if nrm > 1e-8:
                basis.append(w / nrm)
        return np.array(basis)

    def curvature_tensor(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim > 1:
            flat = p.reshape(-1, self.n)
            out = np.array([self.curvature_tensor(q) for q in flat])
            return out.reshape(p.shape[:-1] + out.shape[-3:])
        tf = self._tangent_frame(p)
        h = self.fd_step
        k = len(tf)
        A = np.zeros((k, k, self.n))
        for a in range(k):
            for b in range(a, k):
                plus = tf[a] + tf[b]
                minus = tf[a] - tf[b]
                val = (self._project_one(p + h * plus) + self._project_one(p - h * plus)
                       - self._project_one(p + h * minus) - self._project_one(p - h * minus)
                       ) / (4 * h * h)
                A[a, b] = A[b, a] = val
        T = np.einsum("abi,aj,bl->ijl", A, tf, tf)
        return T

    def sample(self, rng, count):
        if self._sampler is None:
            raise UsageError("levelset manifold requires an explicit sampler")
        return np.asarray(self._sampler(rng, count), dtype=float)

    def sff_sup_bound(self):
        rng = np.random.default_rng(7)
        try:
            pts = self.sample(rng, 64)
        except UsageError:
            return float("nan")
        T = self.curvature_tensor(pts)
        return float(np.linalg.norm(T.reshape(len(pts), -1), axis=1).max())

    def base_point(self):
        raise UsageError("levelset manifold has no canonical base point")


def from_config(cfg: dict) -> TargetManifold:
    """Build a target from config keys like {"kind": "sphere", "n": 3}."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigurationError("target config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    extra = {k: v for k, v in cfg.items() if k != "kind"}
    if kind == "sphere":
        known = {"n"}
        _reject_unknown(extra, known, "target")
        n = extra.get("n", 3)
        # S^1 (n = 2) has no tangent pair for the boundary families
        if isinstance(n, bool) or not isinstance(n, int) or n < 3:
            raise ConfigurationError(
                f"target.n must be an integer >= 3, got {n!r}")
        return Sphere(n=n)
    if kind == "torus3":
        known = {"R", "r"}
        _reject_unknown(extra, known, "target")
        return RevolutionTorus(R=float(extra.get("R", 2.0)),
                               r=float(extra.get("r", 1.0)))
    if kind == "clifford":
        _reject_unknown(extra, set(), "target")
        return CliffordTorus()
    raise ConfigurationError(f"unknown target kind {kind!r}")


def _reject_unknown(extra, known, where):
    unknown = sorted(set(extra) - known)
    if unknown:
        raise ConfigurationError(f"unknown {where} key {unknown[0]!r}")


# -- measured constants and the potential ---------------------------------------


def normal_deviation_check(m: TargetManifold, samples: int, seed: int = 0) -> dict:
    """Measure sup |(p-q)^perp_p| / |p-q|^2 over random point pairs on N."""
    rng = np.random.default_rng(seed)
    p = m.sample(rng, samples)
    q = m.sample(rng, samples)
    d = p - q
    dist = np.linalg.norm(d, axis=-1)
    keep = dist > 1e-9
    ratios = np.zeros(len(p))
    if np.any(keep):
        normal = m.normal_component(p[keep], d[keep])
        ratios[keep] = np.linalg.norm(normal, axis=-1) / dist[keep] ** 2
    return {
        "constant": float(ratios.max(initial=0.0)),
        "pairs_used": int(keep.sum()),
        "pairs_skipped": int((~keep).sum()),
    }


@dataclass
class ConnectionForm:
    """Per-triangle antisymmetric matrix pair (Omega_x, Omega_y)."""

    mesh: DiskMesh
    values: np.ndarray  # (nt, 2, n, n)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        nt = self.mesh.n_triangles
        if self.values.shape[:2] != (nt, 2) or self.values.ndim != 4:
            raise UsageError(f"connection form must be (nt, 2, n, n), got "
                             f"{self.values.shape}")
        # enforce exact antisymmetry
        self.values = 0.5 * (self.values - np.swapaxes(self.values, -1, -2))

    @property
    def n(self):
        return self.values.shape[-1]

    def l2_norm(self):
        a = self.mesh.tri_areas
        return float(np.sqrt((a * (self.values ** 2).sum(axis=(1, 2, 3))).sum()))


def assemble_omega(m: TargetManifold, u: Field) -> ConnectionForm:
    """Antisymmetric potential of a manifold-valued map, per triangle.

    Built from the projected centroid value and the triangle gradient so
    that -Laplace(u) = Omega . grad(u) holds for harmonic maps (for the
    sphere this reduces to Omega^i_j = u^i grad(u^j) - u^j grad(u^i)).
    """
    viol = float(np.max(m.constraint_violation(u.values)))
    if viol > _ON_MANIFOLD_TOL:
        raise UsageError(f"map has vertex values off the manifold by {viol:.2e}")
    g = gradient(u).values  # (nt, 2, n)
    centers = m.project(u.mesh.at_centroids(u.values))
    theta = m.omega_tensor(centers)  # (nt, n, n, l)
    vals = np.einsum("tizl,tal->taiz", theta, g)
    return ConnectionForm(u.mesh, vals)
