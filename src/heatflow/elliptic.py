"""Linear elliptic solvers on the disk: Poisson-Dirichlet, Wente, Hodge.

Sign convention: all solvers treat equations written as Laplace(v) = rhs,
so the weak form is  int grad(v).grad(phi) = -<rhs, phi>.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverFailure, UsageError
from .mesh import (CellVectorField, DiskMesh, Field, curl_load, div_load, gradient,
                   jacobian_product, norms, perp_gradient)

CG_RTOL = 1e-12
RESIDUAL_TOL = 1e-11

# The one per-mesh cache: every factorization of a mesh (interior and
# bordered Neumann LU, step LU per tau, Sobolev M + K preconditioner of the
# gauge descent) and the stiffness blocks, built on first use and dropped
# with the mesh.
_factors = weakref.WeakKeyDictionary()


def _cached(mesh: DiskMesh, key, build):
    per_mesh = _factors.setdefault(mesh, {})
    if key not in per_mesh:
        per_mesh[key] = build()
    return per_mesh[key]


def _lu(A):
    # minimum degree on the pattern of A^T + A (all four matrices have a
    # symmetric pattern): at refinement 4 it leaves about 37% fewer L + U
    # entries than the default COLAMD, so factors, solves and memory shrink
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A")


def _blocks(mesh: DiskMesh, A):
    """Interior-interior (CSC) and interior-boundary (CSR) blocks of A."""
    idx = mesh.interior_idx
    return (A[np.ix_(idx, idx)].tocsc(),
            A[np.ix_(idx, mesh.boundary_idx)].tocsr())


def _interior_matrix(mesh):
    return _cached(mesh, "K_blocks", lambda: _blocks(mesh, mesh.stiffness))


def _interior_factor(mesh):
    return _cached(mesh, "interior", lambda: _lu(_interior_matrix(mesh)[0]))


def _neumann_factor(mesh):
    """Factorization of the mean-constrained (bordered) Neumann system."""
    def build():
        m = mesh.lumped_mass
        B = sp.bmat([[mesh.stiffness, m[:, None]], [m[None, :], None]],
                    format="csc")
        return _lu(B)
    return _cached(mesh, "neumann", build)


def _step_factor(mesh, tau: float):
    """LU of the interior block of M_lumped + tau K, and its boundary block."""
    def build():
        AII, AIB = _blocks(mesh, sp.diags(mesh.lumped_mass) + tau * mesh.stiffness)
        return _lu(AII), AIB
    return _cached(mesh, ("step", float(tau)), build)


def _sobolev_factor(mesh):
    return _cached(mesh, "sobolev", lambda: _lu(
        (sp.diags(mesh.lumped_mass) + mesh.stiffness).tocsc()))


def _cg_solve(A, b):
    diag = A.diagonal()
    M = sp.diags(1.0 / np.where(diag > 0, diag, 1.0))
    x, info = spla.cg(A, b, rtol=CG_RTOL, atol=0.0, M=M,
                      maxiter=20 * A.shape[0])
    if info != 0:
        raise SolverFailure(f"conjugate gradient did not converge (info={info})")
    return x


def solve_interior(mesh: DiskMesh, load: np.ndarray, method: str = "auto"):
    """Solve K_II x_I = load_I with zero boundary values.

    `load` is the full-length load vector (boundary rows ignored), possibly
    with extra payload axes. Returns vertex values with exact zero trace
    plus the relative residual of the interior system. "auto" and "direct"
    use the mesh's cached LU; "cg" (Jacobi-preconditioned) and "dense" are
    independent oracles.
    """
    idx = mesh.interior_idx
    KII, _ = _interior_matrix(mesh)
    shape = load.shape
    b = load.reshape(mesh.n_vertices, -1)[idx]
    if method in ("auto", "direct"):
        x = _interior_factor(mesh).solve(b)
    elif method == "cg":
        x = np.column_stack([_cg_solve(KII, b[:, j]) for j in range(b.shape[1])])
    elif method == "dense":
        x = np.linalg.solve(KII.toarray(), b)
    else:
        raise UsageError(f"unknown solve method {method!r}")
    x = np.atleast_2d(x.reshape(len(idx), -1))
    bn = np.linalg.norm(b)
    resid = np.linalg.norm(KII @ x - b) / bn if bn > 0 else 0.0
    if resid > RESIDUAL_TOL:
        raise SolverFailure(f"linear residual {resid:.2e} exceeds {RESIDUAL_TOL:g}")
    out = np.zeros((mesh.n_vertices,) + shape[1:])
    out[idx] = x.reshape((len(idx),) + shape[1:])
    return out, float(resid)


def solve_dirichlet_lifted(mesh: DiskMesh, load: np.ndarray, bvals: np.ndarray,
                           method: str = "auto"):
    """Solve K x = load with prescribed boundary values `bvals` (full-length)."""
    idx = mesh.interior_idx
    bidx = mesh.boundary_idx
    _, KIB = _interior_matrix(mesh)
    shape = load.shape
    flat_load = load.reshape(mesh.n_vertices, -1)
    flat_b = bvals.reshape(mesh.n_vertices, -1)
    rhs = np.zeros_like(flat_load)
    rhs[idx] = flat_load[idx] - KIB @ flat_b[bidx]
    x, resid = solve_interior(mesh, rhs.reshape(shape), method=method)
    x = x.reshape(mesh.n_vertices, -1)
    x[bidx] = flat_b[bidx]
    return x.reshape((mesh.n_vertices,) + shape[1:]), resid


def solve_neumann_meanzero(mesh: DiskMesh, load: np.ndarray):
    """Solve K x = load with natural boundary condition and int x = 0.

    The load is projected onto mean zero first (solvability), matching the
    convention of fixing the additive constant by a vanishing integral.
    """
    m = mesh.lumped_mass
    area = m.sum()
    b = load.reshape(mesh.n_vertices, -1).copy()
    b -= m[:, None] * (b.sum(axis=0) / area)
    lu = _neumann_factor(mesh)
    rhs = np.vstack([b, np.zeros((1, b.shape[1]))])
    sol = lu.solve(rhs)
    x, lam = sol[:-1], sol[-1]
    bn = np.linalg.norm(b)
    resid = 0.0
    if bn > 0:
        resid = np.linalg.norm(mesh.stiffness @ x + m[:, None] * lam[None, :] - b) / bn
    return x.reshape((mesh.n_vertices,) + load.shape[1:]), float(resid)


def cell_load(mesh: DiskMesh, f_cells: np.ndarray) -> np.ndarray:
    """Load <f, phi_i> for a per-triangle density f (centroid quadrature)."""
    f_cells = np.asarray(f_cells, dtype=float)
    flat = f_cells.reshape(mesh.n_triangles, -1)
    out = mesh.cell_to_vertex @ flat
    return out.reshape((mesh.n_vertices,) + f_cells.shape[1:])


def vertex_load(mesh: DiskMesh, f_vals: np.ndarray) -> np.ndarray:
    """Load <f, phi_i> for a vertex field f via the consistent mass matrix."""
    flat = f_vals.reshape(mesh.n_vertices, -1)
    return (mesh.mass @ flat).reshape(f_vals.shape)


# -- public operations ---------------------------------------------------------


@dataclass
class PoissonSolution:
    psi: Field
    diagnostics: dict = field(default_factory=dict)


def poisson_dirichlet(f, mesh: DiskMesh | None = None,
                      method: str = "auto") -> PoissonSolution:
    """Galerkin solution of Laplace(psi) = f with psi = 0 on the boundary.

    `f` is a vertex Field or a per-triangle density array.
    """
    if isinstance(f, Field):
        mesh = f.mesh
        load = vertex_load(mesh, f.values)
        rhs_norms = norms(f)
    else:
        if mesh is None:
            raise UsageError("per-triangle RHS requires an explicit mesh")
        f = np.asarray(f, dtype=float)
        if f.shape[0] != mesh.n_triangles:
            raise UsageError(f"per-triangle RHS has {f.shape[0]} entries for "
                             f"{mesh.n_triangles} triangles")
        if not np.all(np.isfinite(f)):
            raise UsageError("RHS contains non-finite values")
        load = cell_load(mesh, f)
        a = mesh.tri_areas.reshape((-1,) + (1,) * (f.ndim - 1))
        mag = np.sqrt((f ** 2).reshape(mesh.n_triangles, -1).sum(axis=1))
        rhs_norms = {"L1": float((mesh.tri_areas * mag).sum()),
                     "L2": float(np.sqrt((mesh.tri_areas * mag ** 2).sum())),
                     "Linf": float(mag.max(initial=0.0))}
    vals, resid = solve_interior(mesh, -load, method=method)
    psi = Field(mesh, vals)
    gn = norms(gradient(psi))
    pn = norms(psi)
    return PoissonSolution(psi, {
        "psi_linf": pn["Linf"],
        "grad_l2": gn["L2"],
        "rhs_l1": rhs_norms["L1"],
        "rhs_l2": rhs_norms["L2"],
        "residual_rel": resid,
    })


@dataclass
class WenteSolution:
    w: Field
    ratio: float
    degenerate: bool
    grad_a_l2: float
    grad_b_l2: float
    diagnostics: dict = field(default_factory=dict)


def wente_solve(a: Field, b: Field, bc: str = "dirichlet-zero") -> WenteSolution:
    """Solve Laplace(w) = grad(a) . perp_grad(b) and report the compensation
    ratio ||w||_inf / (||grad a|| ||grad b||)."""
    if bc not in ("dirichlet-zero", "neumann-zero"):
        raise UsageError(f"unknown boundary condition {bc!r}")
    mesh = a.mesh
    rhs = jacobian_product(a, b)
    na = norms(gradient(a))["L2"]
    nb = norms(gradient(b))["L2"]
    if na * nb < 1e-14:
        zero = Field(mesh, np.zeros(mesh.n_vertices))
        return WenteSolution(zero, 0.0, True, na, nb)
    load = cell_load(mesh, rhs)
    if bc == "dirichlet-zero":
        vals, resid = solve_interior(mesh, -load)
    else:
        vals, resid = solve_neumann_meanzero(mesh, -load)
    w = Field(mesh, vals)
    ratio = norms(w)["Linf"] / (na * nb)
    return WenteSolution(w, float(ratio), False, na, nb,
                         {"residual_rel": resid, "bc": bc})


@dataclass
class HodgePair:
    eta: Field
    zeta: Field
    residual: CellVectorField
    residual_l2: float
    diagnostics: dict = field(default_factory=dict)


def hodge_decompose(F: CellVectorField) -> HodgePair:
    """Split F = perp_grad(eta) + grad(zeta) with int eta = 0 and zeta = 0
    on the boundary; the remainder is returned as a residual field."""
    mesh = F.mesh
    vals = F.values
    b_zeta = -div_load(mesh, vals)          # K zeta = int F . grad(phi)
    b_eta = -curl_load(mesh, vals)          # K eta  = int F . perp_grad(phi)
    zeta_vals, r1 = solve_interior(mesh, b_zeta)
    eta_vals, r2 = solve_neumann_meanzero(mesh, b_eta)
    eta = Field(mesh, eta_vals)
    zeta = Field(mesh, zeta_vals)
    recon = perp_gradient(eta).values + gradient(zeta).values
    residual = CellVectorField(mesh, vals - recon)
    rl2 = norms(residual)["L2"]
    return HodgePair(eta, zeta, residual, rl2,
                     {"residual_zeta": r1, "residual_eta": r2})


def energy_density(u: Field) -> np.ndarray:
    """Per-triangle |grad u|^2 (summed over payload components)."""
    g = gradient(u).values
    return (g ** 2).reshape(u.mesh.n_triangles, -1).sum(axis=1)


def psi_energy_density(u: Field) -> PoissonSolution:
    """Solve Laplace(psi) = |grad u|^2 with zero trace and report the
    L-infinity plus W^{1,2} diagnostic used by the small-energy estimates."""
    sol = poisson_dirichlet(energy_density(u), mesh=u.mesh)
    d = sol.diagnostics
    d["psi_linf_plus_grad_l2"] = d["psi_linf"] + d["grad_l2"]
    return sol
