import numpy as np

from heatflow.elliptic import hodge_decompose
from heatflow.flow import run_flow
from heatflow.gauge import (_frame_energy_grad, b_sup_estimate,
                            conservation_residual, construct_AB, default_probes,
                            flux_field, gauge_frame, minimize_gauge,
                            p_oscillation, p_structure, polar_rotation,
                            recover_xi, synthetic_gauge)
from heatflow.manifold import ConnectionForm, Sphere, assemble_omega
from heatflow.mesh import Field, build_disk_mesh, gradient, interpolate, norms

from conftest import cap_boundary

_cache = {}


def converged_sphere_snapshot(mesh_at, ref=2):
    """Flow to near-stationarity; returns (traj, last snapshot, omega)."""
    if ref not in _cache:
        mesh = mesh_at(ref)
        m = Sphere(3)
        chi = cap_boundary(mesh, m, 0.12)
        traj = run_flow(mesh, m, chi, 12.0, 4 * mesh.h ** 2, 0.1,
                        snapshot_times=[0.0, 6.0, 12.0])
        snap = traj.snapshots[-1]
        _cache[ref] = (traj, snap, assemble_omega(m, snap.u))
    return _cache[ref]


def test_polar_rotation():
    rng = np.random.default_rng(2)
    mats = np.eye(3) + 0.3 * rng.standard_normal((50, 3, 3))
    R = polar_rotation(mats)
    assert np.abs(np.einsum("vki,vkj->vij", R, R) - np.eye(3)).max() <= 1e-12
    assert np.linalg.det(R).min() > 0.999


def test_minimize_gauge_zero_potential(mesh2):
    omega = ConnectionForm(mesh2, np.zeros((mesh2.n_triangles, 2, 3, 3)))
    frame = minimize_gauge(omega)
    assert frame.energy == 0.0
    assert np.abs(frame.P.values - np.eye(3)).max() == 0.0
    full = recover_xi(frame, omega)
    assert np.abs(full.xi.values).max() <= 1e-14
    assert full.r_gauge <= 1e-14


def test_minimize_gauge_synthetic(mesh_at):
    mesh = mesh_at(2)
    P_hat, xi_hat, omega = synthetic_gauge(mesh)
    frame = minimize_gauge(omega)
    assert frame.converged
    # the synthetic frame is a critical point: descent must do at least as well
    E_hat, _ = _frame_energy_grad(mesh, P_hat.values, omega.values,
                                  need_grad=False)
    assert frame.energy <= E_hat * 1.05 + 5.0 * mesh.h
    # orthogonality and orientation kept exactly
    PtP = np.einsum("vki,vkj->vij", frame.P.values, frame.P.values)
    assert np.abs(PtP - np.eye(3)).max() <= 1e-10
    assert np.linalg.det(frame.P.values).min() > 0.0
    # identity gauge at the center vertex
    center = int(np.argmin((mesh.vertices ** 2).sum(axis=1)))
    assert np.abs(frame.P.values[center] - np.eye(3)).max() <= 1e-12


def test_gauge_energy_monotone_by_construction(mesh2):
    # line search guarantees monotone descent; energy must end below start
    P_hat, xi_hat, omega = synthetic_gauge(mesh2)
    E_id, _ = _frame_energy_grad(mesh2, np.tile(np.eye(3), (mesh2.n_vertices, 1, 1)),
                                 omega.values, need_grad=False)
    frame = minimize_gauge(omega)
    assert frame.energy <= E_id


def test_recover_xi_synthetic(mesh_at):
    for ref in (2, 3):
        mesh = mesh_at(ref)
        P_hat, xi_hat, omega = synthetic_gauge(mesh)
        frame = gauge_frame(omega)
        assert frame.r_gauge <= 10.0 * mesh.h * omega.l2_norm()
        err = norms(Field(mesh, frame.xi.values - xi_hat.values))["L2"]
        assert err <= 10.0 * mesh.h
        assert np.abs(frame.xi.values
                      + np.swapaxes(frame.xi.values, -1, -2)).max() <= 1e-14
        assert np.abs(frame.xi.values[mesh.boundary_idx]).max() == 0.0


def test_gauge_estimate_constant_measured(mesh_at):
    cs = []
    for ref in (2, 3):
        mesh = mesh_at(ref)
        _, _, omega = synthetic_gauge(mesh)
        frame = gauge_frame(omega)
        c = (norms(gradient(frame.P))["L2"] + norms(gradient(frame.xi))["L2"]) \
            / omega.l2_norm()
        cs.append(c)
    assert abs(cs[1] - cs[0]) <= 0.2 * max(cs)


def test_construct_ab_zero_potential(mesh2):
    omega = ConnectionForm(mesh2, np.zeros((mesh2.n_triangles, 2, 3, 3)))
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    assert np.abs(cons.A.values - np.eye(3)).max() <= 1e-12
    assert np.abs(cons.A_hat.values).max() <= 1e-12
    assert np.abs(cons.B.values).max() <= 1e-12
    assert cons.r_cons <= 1e-10


def test_construct_ab_synthetic(mesh_at):
    rcs = []
    for ref in (2, 3):
        mesh = mesh_at(ref)
        _, _, omega = synthetic_gauge(mesh)
        frame = gauge_frame(omega)
        cons = construct_AB(frame, omega)
        assert cons.converged
        assert cons.iterations < 50
        assert cons.r_cons <= 10.0 * mesh.h * omega.l2_norm()
        assert cons.min_singular_value >= 0.5
        rcs.append(cons.r_cons)
    assert rcs[1] <= 0.7 * rcs[0]


def test_ab_estimate_constant_stable(mesh_at):
    cs = []
    for ref in (2, 3):
        mesh = mesh_at(ref)
        _, _, omega = synthetic_gauge(mesh)
        frame = gauge_frame(omega)
        cons = construct_AB(frame, omega)
        c = (norms(cons.A_hat)["Linf"]
             + norms(cons.B)["L2"] + norms(gradient(cons.B))["L2"]) \
            / omega.l2_norm()
        cs.append(c)
    assert abs(cs[1] - cs[0]) <= 0.25 * max(cs)


def test_conservation_residual_constant_state(mesh2):
    m = Sphere(3)
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([0.0, 0.0, 1.0],
                                                        x.shape + (3,)))
    omega = assemble_omega(m, u)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    zero = Field(mesh2, np.zeros_like(u.values))
    assert conservation_residual(cons, u, zero) <= 1e-12


def test_conservation_residual_harmonic(mesh_at):
    vals = []
    for ref in (2, 3):
        traj, snap, omega = converged_sphere_snapshot(mesh_at, ref)
        frame = gauge_frame(omega)
        cons = construct_AB(frame, omega)
        zero = Field(traj.mesh, np.zeros_like(snap.u.values))
        r = conservation_residual(cons, snap.u, zero)
        vals.append(r)
        assert r <= 10.0 * traj.mesh.h * (1.0 + omega.l2_norm())
    assert vals[1] <= 0.7 * vals[0]


def test_b_sup_estimate(mesh_at):
    traj, snap, omega = converged_sphere_snapshot(mesh_at, 2)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    res = b_sup_estimate(cons, snap.u, traj.manifold)
    assert np.isfinite(res["ratio"])
    assert res["l2_gap"] <= 10.0 * traj.mesh.h * max(res["B_sup"], 1e-12) \
        + 1e-10


def test_b_sup_zero_potential(mesh2):
    m = Sphere(3)
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([0.0, 0.0, 1.0],
                                                        x.shape + (3,)))
    omega = assemble_omega(m, u)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    res = b_sup_estimate(cons, u, m)
    assert res["B_sup"] <= 1e-12
    assert res["ratio"] == 0.0


def test_p_structure_constant_map(mesh2):
    m = Sphere(3)
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([0.0, 0.0, 1.0],
                                                        x.shape + (3,)))
    omega = assemble_omega(m, u)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    ps = p_structure(cons, frame, u, m)
    assert ps.residual_dual <= 1e-10


def test_p_structure_flow_snapshot(mesh_at):
    for ref in (2, 3):
        traj, snap, omega = converged_sphere_snapshot(mesh_at, ref)
        frame = gauge_frame(omega)
        cons = construct_AB(frame, omega)
        hodge = hodge_decompose(flux_field(cons, snap.u))
        ps = p_structure(cons, frame, snap.u, traj.manifold, hodge)
        assert ps.residual_dual <= 10.0 * traj.mesh.h * (1 + omega.l2_norm() ** 2)
        total = ps.norms["grad_Q_l2_sum"] + ps.norms["grad_R_l2_sum"]
        assert np.isfinite(total)


def test_p_oscillation_constant_frame(mesh2):
    m = Sphere(3)
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([0.0, 0.0, 1.0],
                                                        x.shape + (3,)))
    omega = assemble_omega(m, u)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    ps = p_structure(cons, frame, u, m)
    res = p_oscillation(frame, ps, 0.0, default_probes(), 0.1)
    assert res["max_oscillation"] <= 1e-12


def test_p_oscillation_synthetic_matches_analytic(mesh_at):
    # P_hat = rotation by theta(x): |P(y) - P(x)|_F = 2 sqrt(2) |sin((dtheta)/2)|
    mesh = mesh_at(3)
    P_hat, xi_hat, omega = synthetic_gauge(mesh)
    frame = gauge_frame(omega)

    def theta(pts):
        x, y = pts[:, 0], pts[:, 1]
        return 0.4 * (x * x - y * y + x * y)

    probes = [((0.0, 0.0), 0.25), ((0.3, 0.1), 0.2)]
    measured = []
    analytic = []
    for (x, r) in probes:
        x = np.asarray(x)
        d2 = ((mesh.vertices - x) ** 2).sum(axis=1)
        xi_idx = int(np.argmin(d2))
        inside = np.flatnonzero(d2 <= r * r)
        th = theta(mesh.vertices)
        dth = th[inside] - th[xi_idx]
        analytic.append(2 * np.sqrt(2.0) * np.abs(np.sin(dth / 2)).max())
        diff = frame.P.values[inside] - frame.P.values[xi_idx]
        measured.append(np.sqrt((diff ** 2).sum(axis=(1, 2))).max())
    for got, ref in zip(measured, analytic):
        assert got <= 2.0 * ref + 1e-8
        assert got >= 0.5 * ref - 1e-8


def test_p_oscillation_skips_bad_probe(mesh2):
    P_hat, xi_hat, omega = synthetic_gauge(mesh2)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    ps = p_structure(cons, frame,
                     interpolate(mesh2, lambda x, y: np.broadcast_to(
                         [0.0, 0.0, 1.0], x.shape + (3,))), Sphere(3))
    res = p_oscillation(frame, ps, 0.0, [((0.9, 0.0), 0.2)], 0.1)
    assert len(res["skipped"]) == 1
    assert res["max_oscillation"] == 0.0


def test_gauge_residual_refinement_rate(mesh_at):
    # r_gauge on the synthetic family decays with observed rate >= 0.8 in h
    rs, hs = [], []
    for ref in (2, 3, 4):
        mesh = mesh_at(ref)
        _, _, omega = synthetic_gauge(mesh)
        frame = gauge_frame(omega)
        rs.append(frame.r_gauge)
        hs.append(mesh.h)
    rates = np.log(np.array(rs[:-1]) / np.array(rs[1:])) \
        / np.log(np.array(hs[:-1]) / np.array(hs[1:]))
    assert rates.min() >= 0.8


def test_each_factor_is_built_once_per_mesh(monkeypatch):
    import scipy.sparse.linalg as spla
    shapes = []
    splu = spla.splu

    def counting(A, *args, **kwargs):
        shapes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    mesh = build_disk_mesh(2)   # fresh: no factor cached yet
    m = Sphere(3)
    chi = cap_boundary(mesh, m, 0.12)

    def flow_and_gauge_chain():
        traj = run_flow(mesh, m, chi, 1.0, 4 * mesh.h ** 2, 0.1,
                        snapshot_times=[0.0, 1.0])
        assert traj.halvings == 0
        snap = traj.snapshots[-1]
        omega = assemble_omega(m, snap.u)
        frame = gauge_frame(omega)
        cons = construct_AB(frame, omega)
        hodge = hodge_decompose(flux_field(cons, snap.u))
        p_structure(cons, frame, snap.u, m, hodge)
        conservation_residual(cons, snap.u, snap.ut)

    flow_and_gauge_chain()
    ni, nv = len(mesh.interior_idx), mesh.n_vertices
    # interior LU, step LU, Sobolev preconditioner, bordered Neumann LU
    assert sorted(shapes) == sorted([ni, ni, nv, nv + 1])
    flow_and_gauge_chain()
    assert len(shapes) == 4
