"""Gauge decomposition for antisymmetric potentials on the disk.

Pipeline: minimize the frame energy E(R) = int |grad R + Omega R|^2 over
vertex-wise rotations (equal to int |R^T grad R + R^T Omega R|^2 since R is
orthogonal), recover the skew potential xi from a Poisson solve, build the
conservation pair (A, B) by a div/curl fixed point, and certify everything
through residuals rather than uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import (cell_load, hodge_decompose, poisson_dirichlet,
                       solve_interior, solve_neumann_meanzero,
                       _interior_factor, _sobolev_factor)
from .errors import DivergenceError, UsageError
from .manifold import ConnectionForm, TargetManifold
from .mesh import (CellVectorField, DiskMesh, Field, curl_load, div_load,
                   energy_density, gradient, norms, perp_gradient,
                   rotate_cell_field)

DESCENT_REL_TOL = 1e-10   # descent stops once an energy drop is this small
AB_MAX_ITERATIONS = 200   # (A, B) fixed-point iterations
AB_TOL = 1e-10            # (A, B) fixed point stops below this change


def polar_rotation(mats: np.ndarray) -> np.ndarray:
    """Nearest rotation matrices (batched polar factor with det +1)."""
    U, _, Vt = np.linalg.svd(mats)
    R = U @ Vt
    bad = np.linalg.det(R) < 0
    if np.any(bad):
        U = U.copy()
        U[bad, :, -1] *= -1.0
        R[bad] = U[bad] @ Vt[bad]
    return R


@dataclass
class GaugeFrame:
    P: Field
    xi: Field | None
    energy: float
    r_gauge: float | None
    iterations: int
    converged: bool

    @property
    def n(self):
        return self.P.values.shape[-1]


@dataclass
class ConservationFrame:
    A: Field
    A_hat: Field
    B: Field
    r_cons: float
    iterations: int
    converged: bool
    min_singular_value: float


@dataclass
class PStructure:
    Q: Field            # payload (n, n, n): [k, i, j]
    R: Field
    eta: Field
    zeta: Field
    residual_dual: float
    norms: dict
    load: np.ndarray = field(repr=False, default=None)


def _frame_energy_grad(mesh: DiskMesh, Pv: np.ndarray, omega: np.ndarray,
                       need_grad: bool = True):
    """Energy sum_t A_t sum_a |grad(P)_a + Omega_a Pbar|_F^2 and its Euclidean
    gradient with respect to the vertex matrices."""
    a = mesh.tri_areas
    Pbar = mesh.at_centroids(Pv)                     # (nt, n, n)
    gradP = gradient(Field(mesh, Pv)).values         # (nt, 2, n, n)
    M = gradP + np.einsum("taiz,tzj->taij", omega, Pbar)
    E = float((a * (M ** 2).sum(axis=(1, 2, 3))).sum())
    if not need_grad:
        return E, None
    # dE/dP = D^T (2 a M) + C^T (2 a sum_a Omega_a^T M_a)
    aM = 2.0 * a[:, None, None, None] * M
    omega_term = np.einsum("tazi,tazj->tij", omega, aM)
    scatter = mesh.C.T @ omega_term.reshape(mesh.n_triangles, -1)
    return E, -div_load(mesh, 2.0 * M) + scatter.reshape(Pv.shape)


def _tangent_project_rotations(Pv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project matrices onto the tangent spaces {W P : W skew} at each vertex."""
    W = np.einsum("vij,vkj->vik", g, Pv)
    W = 0.5 * (W - np.swapaxes(W, -1, -2))
    return np.einsum("vik,vkj->vij", W, Pv)


def minimize_gauge(omega: ConnectionForm,
                   max_iterations: int = 5000) -> GaugeFrame:
    """Gauge frame by Riemannian descent over vertex-wise rotations.

    The descent direction is the H^1(Sobolev)-preconditioned gradient (plain
    L^2 descent needs O(h^-2) iterations); backtracking line search keeps the
    energy monotone and polar retraction keeps the frames orthogonal. The
    frame is normalized to the identity at the center vertex.
    """
    mesh = omega.mesh
    n = omega.n
    eye = np.broadcast_to(np.eye(n), (mesh.n_vertices, n, n)).copy()
    if omega.l2_norm() < 1e-14:
        P = Field(mesh, eye)
        return GaugeFrame(P, None, 0.0, None, 0, True)

    lu = _sobolev_factor(mesh)
    Pv = eye
    E, grad = _frame_energy_grad(mesh, Pv, omega.values)
    E_first = E
    alpha = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        gT = _tangent_project_rotations(Pv, grad)
        flat = lu.solve(gT.reshape(mesh.n_vertices, -1))
        d = _tangent_project_rotations(Pv, flat.reshape(Pv.shape))
        slope = float((gT * d).sum())
        if slope <= 1e-30:
            converged = True
            break
        alpha = min(alpha * 2.0, 1e3)
        accepted = False
        for _ in range(40):
            trial = polar_rotation(Pv - alpha * d)
            E_trial, _ = _frame_energy_grad(mesh, trial, omega.values,
                                            need_grad=False)
            if E_trial <= E - 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            converged = True  # no descent possible at line-search resolution
            break
        Pv = trial
        drop = E - E_trial
        E = E_trial
        _, grad = _frame_energy_grad(mesh, Pv, omega.values)
        if drop <= DESCENT_REL_TOL * max(E_first, 1e-16):
            converged = True
            break

    center = int(np.argmin((mesh.vertices ** 2).sum(axis=1)))
    Pv = np.einsum("vij,kj->vik", Pv, Pv[center])
    P = Field(mesh, Pv)
    return GaugeFrame(P, None, E, None, iterations, converged)


def _coulomb_form(P: Field, omega: ConnectionForm) -> np.ndarray:
    """W = P^T grad P + P^T Omega P per triangle, shape (nt, 2, n, n)."""
    mesh = P.mesh
    Pbar = mesh.at_centroids(P.values)
    gradP = gradient(P).values
    W = np.einsum("tki,takj->taij", Pbar, gradP) \
        + np.einsum("tki,takz,tzj->taij", Pbar, omega.values, Pbar)
    return W


def recover_xi(frame: GaugeFrame, omega: ConnectionForm) -> GaugeFrame:
    """Complete the frame: solve Laplace(xi) = curl(W) with zero trace on the
    skew part of W = P^T grad P + P^T Omega P, and store the gauge residual."""
    mesh = frame.P.mesh
    W = _coulomb_form(frame.P, omega)
    W_skew = 0.5 * (W - np.swapaxes(W, -1, -2))
    # Laplace(xi) = curl(W): K xi = -<curl W, phi>
    vals, _ = solve_interior(mesh, -curl_load(mesh, W_skew))
    xi = Field(mesh, 0.5 * (vals - np.swapaxes(vals, -1, -2)))
    resid = rotate_cell_field(gradient(xi)).values - W
    a = mesh.tri_areas
    r_gauge = float(np.sqrt((a * (resid ** 2).sum(axis=(1, 2, 3))).sum()))
    return GaugeFrame(frame.P, xi, frame.energy, r_gauge,
                      frame.iterations, frame.converged)


def gauge_frame(omega: ConnectionForm) -> GaugeFrame:
    """Convenience: minimize the frame energy and recover xi."""
    return recover_xi(minimize_gauge(omega), omega)


def construct_AB(frame: GaugeFrame, omega: ConnectionForm) -> ConservationFrame:
    """Conservation pair by fixed-point iteration on the div/curl system

        Laplace(B) = -curl(A Omega),  B = 0 on the boundary,
        Laplace(A) =  div(A Omega),   natural BC with int A = int P^T.

    The natural condition is variationally consistent with B having zero
    trace (perp_grad(B) then has no normal flux), so the defect
    grad(A) - A Omega - perp_grad(B) carries no harmonic remainder and the
    conservation residual vanishes with the mesh size; prescribing A = P^T
    on the boundary instead would leave an O(|Omega|^2) harmonic floor.
    """
    mesh = omega.mesh
    n = omega.n
    Pt_vals = np.swapaxes(frame.P.values, -1, -2)
    A_vals = Pt_vals.copy()
    B_vals = np.zeros_like(A_vals)
    m = mesh.lumped_mass
    Pt_mean = ((m[:, None, None] * Pt_vals).sum(axis=0)) / m.sum()
    a = mesh.tri_areas

    def l2(vals):
        c = mesh.at_centroids(vals)
        return float(np.sqrt((a * (c ** 2).sum(axis=(1, 2))).sum()))

    omega_l2 = omega.l2_norm()
    changes = []
    converged = False
    iterations = 0
    for iterations in range(1, AB_MAX_ITERATIONS + 1):
        Abar = mesh.at_centroids(A_vals)
        F = np.einsum("tim,tamz->taiz", Abar, omega.values)
        # Laplace(B) = -curl(F): K B = +<curl F, phi>
        B_new, _ = solve_interior(mesh, curl_load(mesh, F))
        # Laplace(A) = div(F): K A = -<div F, phi>
        A_new, _ = solve_neumann_meanzero(mesh, -div_load(mesh, F))
        A_new = A_new + Pt_mean[None, :, :]
        change = l2(A_new - A_vals) + l2(B_new - B_vals)
        A_vals, B_vals = A_new, B_new
        changes.append(change)
        if change < AB_TOL * (1.0 + omega_l2):
            converged = True
            break
        if len(changes) >= 4 and all(
                changes[-k] > changes[-k - 1] for k in (1, 2, 3)):
            raise DivergenceError(
                "conservation fixed point diverged; reduce the potential energy")

    A = Field(mesh, A_vals)
    B = Field(mesh, B_vals)
    A_hat = Field(mesh, np.einsum("vij,vjk->vik", A_vals, frame.P.values)
                  - np.eye(n)[None])
    Abar = mesh.at_centroids(A_vals)
    resid = gradient(A).values \
        - np.einsum("tim,tamz->taiz", Abar, omega.values) \
        - rotate_cell_field(gradient(B)).values
    r_cons = float(np.sqrt((a * (resid ** 2).sum(axis=(1, 2, 3))).sum()))
    sv = np.linalg.svd(A_vals, compute_uv=False)
    return ConservationFrame(A, A_hat, B, r_cons, iterations, converged,
                             float(sv.min()))


def _dual_norm(mesh: DiskMesh, residual_load: np.ndarray) -> float:
    """H^{-1}-style discrete dual norm of a load vector over interior vertices."""
    idx = mesh.interior_idx
    lu = _interior_factor(mesh)
    r = residual_load.reshape(mesh.n_vertices, -1)[idx]
    x = lu.solve(r)
    return float(np.sqrt(max((r * x).sum(), 0.0)))


def flux_field(cons: ConservationFrame, u: Field) -> CellVectorField:
    """S = A grad(u) + B perp_grad(u) per triangle."""
    mesh = u.mesh
    Abar = mesh.at_centroids(cons.A.values)
    Bbar = mesh.at_centroids(cons.B.values)
    gu = gradient(u).values
    gup = np.stack([-gu[:, 1], gu[:, 0]], axis=1)
    vals = np.einsum("tij,taj->tai", Abar, gu) \
        + np.einsum("tij,taj->tai", Bbar, gup)
    return CellVectorField(mesh, vals)


def conservation_residual(cons: ConservationFrame, u: Field, ut: Field) -> float:
    """Dual norm of div(A grad u + B perp_grad u) - A u_t."""
    mesh = u.mesh
    S = flux_field(cons, u)
    load = div_load(mesh, S.values)
    Aut = np.einsum("vij,vj->vi", cons.A.values, ut.values)
    load = load - mesh.lumped_mass[:, None] * Aut
    return _dual_norm(mesh, load)


def b_sup_estimate(cons: ConservationFrame, u: Field,
                   m: TargetManifold) -> dict:
    """Sup-norm control of B: re-solve B through the Jacobian (Wente) form
    Laplace(B) = -sum_l grad(u^l) . perp_grad(G_l) with G = A Theta(u), and
    compare with the fixed-point B."""
    mesh = u.mesh
    theta = m.omega_tensor(m.project(u.values))
    G = np.einsum("vim,vmjl->vijl", cons.A.values, theta)
    gG = gradient(Field(mesh, G)).values          # (nt, 2, n, n, n)
    gu = gradient(u).values                       # (nt, 2, n)
    rhs = -np.einsum("tal,taijl->tij", gu,
                     np.stack([-gG[:, 1], gG[:, 0]], axis=1))
    sol = poisson_dirichlet(rhs, mesh=mesh)
    B_w = sol.psi
    gap = norms(Field(mesh, B_w.values - cons.B.values))["L2"]
    e_raw = float((mesh.tri_areas * energy_density(gu)).sum())
    b_sup = norms(cons.B)["Linf"]
    return {
        "B_sup": b_sup,
        "energy": e_raw,
        "ratio": b_sup / e_raw if e_raw > 1e-14 else 0.0,
        "wente_B_sup": norms(B_w)["Linf"],
        "l2_gap": gap,
    }


def p_structure(cons: ConservationFrame, frame: GaugeFrame, u: Field,
                m: TargetManifold, hodge=None) -> PStructure:
    """Assemble the Jacobian structure of Laplace(P) and verify it weakly.

    Q_k and R_k contract the antisymmetrized curvature tensor with P and
    A^{-1} (resp. A^{-1} B); eta and zeta come from the Hodge split of the
    flux A grad(u) + B perp_grad(u).
    """
    mesh = u.mesh
    if frame.xi is None:
        raise UsageError("p_structure needs a completed gauge frame (xi)")
    S = flux_field(cons, u)
    if hodge is None:
        hodge = hodge_decompose(S)
    Av = cons.A.values
    sv = np.linalg.svd(Av, compute_uv=False)
    if sv.min() < 1e-10:
        raise UsageError("A is singular at a vertex; structure undefined")
    Ainv = np.linalg.inv(Av)
    AinvB = np.einsum("vlk,vkj->vlj", Ainv, cons.B.values)
    theta = m.omega_tensor(m.project(u.values))   # (nv, n, n, l)
    Pv = frame.P.values
    Qv = -np.einsum("vizl,vzj,vlk->vkij", theta, Pv, Ainv)
    Rv = np.einsum("vizl,vzj,vlk->vkij", theta, Pv, AinvB)
    Q = Field(mesh, Qv)
    R = Field(mesh, Rv)

    load = _structure_load(mesh, frame, Q, R, hodge, u)
    rho = -(mesh.stiffness @ Pv.reshape(mesh.n_vertices, -1)) \
        - load.reshape(mesh.n_vertices, -1)
    residual = _dual_norm(mesh, rho)

    def grad_l2(f):
        return norms(gradient(f))["L2"]

    nrm = {
        "grad_xi_l2": grad_l2(frame.xi),
        "grad_eta_l2": grad_l2(hodge.eta),
        "grad_zeta_l2": grad_l2(hodge.zeta),
        "grad_Q_l2_sum": grad_l2(Q),
        "grad_R_l2_sum": grad_l2(R),
    }
    return PStructure(Q, R, hodge.eta, hodge.zeta, residual, nrm, load)


def _structure_load(mesh, frame, Q, R, hodge, u):
    """Load <RHS, phi_i> of the four-term Jacobian identity for Laplace(P)."""
    gP = gradient(frame.P).values            # (nt, 2, n, n)
    gxi_p = perp_gradient(frame.xi).values   # (nt, 2, n, n)
    jac1 = np.einsum("taim,tamj->tij", gP, gxi_p)
    gQ = gradient(Q).values                  # (nt, 2, k, n, n)
    geta_p = perp_gradient(hodge.eta).values  # (nt, 2, k)
    jac2 = np.einsum("takij,tak->tij", gQ, geta_p)
    gR = gradient(R).values
    gu_p = perp_gradient(u).values
    jac3 = np.einsum("takij,tak->tij", gR, gu_p)
    load = cell_load(mesh, jac1 + jac2 + jac3)
    # divergence term integrates by parts: <div(Q_k grad zeta^k), phi> =
    # -int Q_k grad(zeta^k) . grad(phi)
    Qbar = mesh.at_centroids(Q.values)                 # (nt, k, n, n)
    gzeta = gradient(hodge.zeta).values                # (nt, 2, k)
    Fdiv = np.einsum("tkij,tak->taij", Qbar, gzeta)
    load = load + div_load(mesh, Fdiv)
    return load


def p_oscillation(frame: GaugeFrame, structure: PStructure, ut_norm: float,
                  probes, eps0: float) -> dict:
    """Local oscillation of P against the split P = P_tilde + V.

    P_tilde solves the Dirichlet-zero problem with the four-term load, so V
    is discrete-harmonic and interior-controlled; the measured constant is
    max |P(y) - P(x)| over probe pairs divided by (sqrt(eps0) + ||u_t||).
    """
    mesh = frame.P.mesh
    vals, _ = solve_interior(mesh, -structure.load)
    p_tilde = Field(mesh, vals)
    skipped = []
    per_probe = []
    max_osc = 0.0
    for (x, r) in probes:
        x = np.asarray(x, dtype=float)
        if np.linalg.norm(x) + 2.0 * r > 1.0 + 1e-12:
            skipped.append({"x": x.tolist(), "r": r,
                            "reason": "B_2r(x) not contained in the disk"})
            continue
        d2 = ((mesh.vertices - x) ** 2).sum(axis=1)
        xi_idx = int(np.argmin(d2))
        inside = np.flatnonzero(d2 <= r * r)
        if inside.size == 0:
            skipped.append({"x": x.tolist(), "r": r, "reason": "no vertices in ball"})
            continue
        diff = frame.P.values[inside] - frame.P.values[xi_idx]
        osc = float(np.sqrt((diff ** 2).sum(axis=(1, 2))).max())
        per_probe.append({"x": x.tolist(), "r": r, "oscillation": osc})
        max_osc = max(max_osc, osc)
    bound = np.sqrt(eps0) + ut_norm
    return {
        "max_oscillation": max_osc,
        "bound_scale": float(bound),
        "ratio": float(max_osc / bound) if bound > 0 else 0.0,
        "p_tilde_linf": norms(p_tilde)["Linf"],
        "probes": per_probe,
        "skipped": skipped,
    }


def default_probes(count: int = 9) -> list:
    """Deterministic probe set (x, r) with B_2r(x) inside the disk."""
    probes = [((0.0, 0.0), 0.2)]
    for k, (rad, r) in enumerate([(0.3, 0.15), (0.55, 0.1)]):
        for j in range(4):
            ang = 2 * np.pi * (j + 0.5 * k) / 4
            probes.append(((rad * np.cos(ang), rad * np.sin(ang)), r))
    return probes[:count]


# -- synthetic gauge family (verification input) --------------------------------


def synthetic_gauge(mesh: DiskMesh, n: int = 3, amplitude: float = 0.4,
                    xi_amplitude: float = 0.3):
    """Smooth frame P_hat, skew potential xi_hat (zero trace), and the potential
    Omega = P grad_perp(xi) P^T - grad(P) P^T they solve the gauge relation for.

    P_hat rotates in the (0,1)-plane by an angle vanishing at the origin, so
    the center-normalized minimizer can be compared against it directly.
    """
    if n < 2:
        raise UsageError("need ambient dimension >= 2")
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    theta = amplitude * (x * x - y * y + x * y)
    Pv = np.tile(np.eye(n), (mesh.n_vertices, 1, 1))
    c, s = np.cos(theta), np.sin(theta)
    Pv[:, 0, 0] = c
    Pv[:, 0, 1] = -s
    Pv[:, 1, 0] = s
    Pv[:, 1, 1] = c
    P_hat = Field(mesh, Pv)

    gens = []
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        if i < n and j < n:
            J = np.zeros((n, n))
            J[i, j] = 1.0
            J[j, i] = -1.0
            gens.append(J)
    r2 = x * x + y * y
    profiles = [(1.0 - r2) * x, (1.0 - r2) * y, (1.0 - r2) * (0.5 + x * y)]
    xiv = np.zeros((mesh.n_vertices, n, n))
    for J, prof in zip(gens, profiles):
        xiv += xi_amplitude * prof[:, None, None] * J[None]
    xi_hat = Field(mesh, xiv)

    Pbar = mesh.at_centroids(Pv)
    gxi_p = rotate_cell_field(gradient(xi_hat)).values
    gP = gradient(P_hat).values
    omega_vals = np.einsum("tik,takl,tjl->taij", Pbar, gxi_p, Pbar) \
        - np.einsum("taik,tjk->taij", gP, Pbar)
    return P_hat, xi_hat, ConnectionForm(mesh, omega_vals)
