import numpy as np
import pytest
from scipy.integrate import quad

from heatflow.elliptic import hodge_decompose
from heatflow.flow import run_flow
from heatflow.gauge import construct_AB, flux_field, gauge_frame
from heatflow.hardy import (HardyEstimator, build_bump, h1_energy_check,
                            pointwise_lower_bound_check)
from heatflow.manifold import Sphere, assemble_omega
from heatflow.mesh import interpolate, jacobian_product, norms

from conftest import cap_boundary

_est_cache = {}


def estimator(mesh_at, ref):
    if ref not in _est_cache:
        _est_cache[ref] = HardyEstimator(mesh_at(ref))
    return _est_cache[ref]


def dense_maximal_oracle(mesh, bump, f_cells, n_scales=200):
    """Brute force: dense geometric scale sweep, direct distance loops."""
    out = np.zeros(mesh.n_vertices)
    areas = mesh.tri_areas
    cents = mesh.centroids
    h = mesh.h
    for v in range(mesh.n_vertices):
        x = mesh.vertices[v]
        t0 = 1.0 - np.linalg.norm(x)
        d = np.linalg.norm(cents - x, axis=1)
        best = 0.0
        if t0 > 1e-9:
            tmin = min(h, t0) * 0.5
            for t in np.geomspace(t0, tmin, n_scales):
                w = bump(d / t)
                denom = (w * areas).sum()
                if denom <= 0:
                    continue
                best = max(best, abs((w * areas * f_cells).sum()) / denom)
        out[v] = best
    return out


def ladder_maximal_reference(est, f_cells):
    """est's scale ladder on every vertex's full outermost stencil, with the
    bump evaluated at every scale and entry and applied as W @ (f a)."""
    mesh, bump = est.mesh, est.bump
    areas = mesh.tri_areas
    radii = 1.0 - np.linalg.norm(mesh.vertices, axis=1)
    out = (mesh.cell_to_vertex @ np.abs(f_cells)) / mesh.lumped_mass
    for v in range(mesh.n_vertices):
        scales = est._scales(radii[v])
        d = np.linalg.norm(mesh.centroids - mesh.vertices[v], axis=1)
        sel = np.flatnonzero(d <= bump.r_out * radii[v] + 1e-12)
        if not (scales.size and sel.size):
            continue
        W = bump(d[sel][None, :] / scales[:, None])
        denom = W @ areas[sel]
        num = np.abs(W @ (f_cells[sel] * areas[sel]))
        valid = denom > 0.0
        if np.any(valid):
            out[v] = max(out[v], (num[valid] / denom[valid]).max())
    return out


def _positive_and_signed(mesh):
    c = mesh.centroids
    return {"positive": 1.0 + np.exp(-(c ** 2).sum(axis=1) / 0.02),
            "signed": np.sin(7 * c[:, 0]) * c[:, 1] + 0.1 * np.cos(5 * c[:, 1])}


@pytest.mark.parametrize("ref", [2, 3])
def test_maximal_matches_full_stencil_reference(mesh_at, ref):
    est = estimator(mesh_at, ref)
    for kind, f in _positive_and_signed(mesh_at(ref)).items():
        mine = est.maximal(f).values
        ref_vals = ladder_maximal_reference(est, f)
        rel = np.abs(mine - ref_vals) / np.abs(ref_vals)
        assert rel.max() <= 1e-13, kind


def test_cached_and_streamed_stencils_agree_exactly(mesh_at, monkeypatch):
    mesh = mesh_at(3)
    f = _positive_and_signed(mesh)["signed"]
    cached = HardyEstimator(mesh)
    filling = cached.maximal(f).values
    reading = cached.maximal(f).values
    assert cached._stencils is not None
    monkeypatch.setattr(HardyEstimator, "CACHE_LIMIT", 0)
    streamed = HardyEstimator(mesh)
    out = streamed.maximal(f).values
    assert streamed._stencils is None
    assert np.array_equal(filling, out)
    assert np.array_equal(reading, out)


def test_bump_constraints():
    b = build_bump()
    assert not b.adjusted
    mass, _ = quad(lambda r: 2 * np.pi * r * float(b(r)), 0.0, 0.5, limit=200)
    assert abs(mass - 1.0) <= 1e-10
    assert float(b(0.3)) == b.plateau == 2.0
    assert float(b(0.6)) == 0.0
    assert b.r_out <= 0.5 - 1e-3
    assert b.grad_max <= 100.0
    # monotone decay on a fine grid
    grid = np.linspace(0, 0.5, 2000)
    vals = b(grid)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(vals >= 0.0)


def test_maximal_constant_density(mesh3):
    est = HardyEstimator(mesh3)
    ones = np.ones(mesh3.n_triangles)
    fs = est.maximal(ones)
    assert np.abs(fs.values - 1.0).max() <= 1e-12
    zeros = np.zeros(mesh3.n_triangles)
    assert np.abs(est.maximal(zeros).values).max() == 0.0


def test_h1_norm_of_one_is_area(mesh_at):
    est = estimator(mesh_at, 3)
    val = est.h1_norm(np.ones(mesh_at(3).n_triangles))
    assert abs(val - np.pi) <= 0.01 * np.pi


def test_maximal_matches_dense_oracle_on_bumps(mesh_at):
    mesh = mesh_at(3)
    est = estimator(mesh_at, 3)
    bump = est.bump
    for rho in (0.1, 0.05):
        f = np.maximum(0.0, 1.0 - (mesh.centroids ** 2).sum(axis=1) / rho ** 2)
        f /= (mesh.tri_areas * f).sum()
        mine = est.maximal(f).values
        oracle = dense_maximal_oracle(mesh, bump, f)
        # aggregate agreement of the Hardy norms
        h1_mine = (mesh.lumped_mass * mine).sum()
        h1_orac = (mesh.lumped_mass * np.maximum(oracle, mine * 0)).sum()
        assert abs(h1_mine - h1_orac) <= 0.10 * max(h1_mine, h1_orac)
        # pointwise the ladder may only undershoot the dense sup mildly
        sel = oracle > 1e-8
        ratios = mine[sel] / oracle[sel]
        assert np.median(ratios) >= 0.9
        assert ratios.min() >= 0.7


def test_h1_log_growth(mesh_at):
    # the smallest bump radius needs h < 0.025 to be resolved
    mesh = mesh_at(5)
    est = estimator(mesh_at, 5)
    radii = [0.1, 0.05, 0.025]
    vals = []
    for rho in radii:
        f = np.maximum(0.0, 1.0 - (mesh.centroids ** 2).sum(axis=1) / rho ** 2)
        f /= (mesh.tri_areas * f).sum()
        assert abs((mesh.tri_areas * np.abs(f)).sum() - 1.0) <= 1e-12
        vals.append(est.h1_norm(f))
    x = np.log(1.0 / np.array(radii))
    y = np.array(vals)
    slope, icept = np.polyfit(x, y, 1)
    fit = slope * x + icept
    ss_res = ((y - fit) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot
    assert slope > 0
    assert r2 >= 0.98


def test_l1_below_h1(mesh3):
    est = HardyEstimator(mesh3)
    rng = np.random.default_rng(3)
    fields = [np.ones(mesh3.n_triangles),
              rng.uniform(0, 1, mesh3.n_triangles),
              np.sin(3 * mesh3.centroids[:, 0]) * mesh3.centroids[:, 1]]
    a = interpolate(mesh3, lambda x, y: np.sin(2 * x) + y * y)
    b = interpolate(mesh3, lambda x, y: x * y + np.cos(2 * y))
    fields.append(jacobian_product(a, b))
    for f in fields:
        l1 = (mesh3.tri_areas * np.abs(f)).sum()
        h1 = est.h1_norm(f)
        assert l1 <= h1 + 1e-8 * l1


def test_maximal_monotone_under_domination(mesh2):
    est = HardyEstimator(mesh2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = rng.uniform(0.0, 1.0, mesh2.n_triangles)
        g = f + rng.uniform(0.0, 1.0, mesh2.n_triangles)
        fs = est.maximal(f).values
        gs = est.maximal(g).values
        assert np.all(fs <= gs + 1e-12)
        assert est.h1_norm(f) <= est.h1_norm(g) + 1e-10


def test_h1_jacobian_constant_stable(mesh_at):
    cs = []
    for ref in (2, 3):
        mesh = mesh_at(ref)
        est = estimator(mesh_at, ref)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(5):
            ca = rng.standard_normal(4) * 0.5
            cb = rng.standard_normal(4) * 0.5
            a = interpolate(mesh, lambda x, y: ca[0] * x + ca[1] * y
                            + ca[2] * np.sin(2 * x) + ca[3] * x * y)
            b = interpolate(mesh, lambda x, y: cb[0] * y + cb[1] * x
                            + cb[2] * np.cos(2 * y) + cb[3] * x * x)
            from heatflow.mesh import gradient
            f = jacobian_product(a, b)
            denom = norms(gradient(a))["L2"] * norms(gradient(b))["L2"]
            worst = max(worst, est.h1_norm(f) / denom)
        cs.append(worst)
    assert abs(cs[1] - cs[0]) <= 0.15 * max(cs)


def test_boundary_vertices_use_local_value(mesh2):
    est = HardyEstimator(mesh2)
    rng = np.random.default_rng(9)
    f = rng.uniform(0.5, 1.5, mesh2.n_triangles)
    fs = est.maximal(f).values
    for v in mesh2.boundary_idx[:10]:
        incident = np.flatnonzero((mesh2.triangles == v).any(axis=1))
        w = mesh2.tri_areas[incident]
        assert fs[v] == pytest.approx((w * np.abs(f[incident])).sum() / w.sum())


def test_pointwise_lower_bound_constant_map(mesh2):
    m = Sphere(3)
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([0.0, 0.0, 1.0],
                                                        x.shape + (3,)))
    omega = assemble_omega(m, u)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    hodge = hodge_decompose(flux_field(cons, u))
    res = pointwise_lower_bound_check(u, frame, hodge)
    assert res["centroids_checked"] == 0
    assert res["min_ratio"] is None


def test_pointwise_lower_bound_flow_snapshot(mesh_at):
    mesh = mesh_at(2)
    m = Sphere(3)
    chi = cap_boundary(mesh, m, 0.12)
    traj = run_flow(mesh, m, chi, 10.0, 4 * mesh.h ** 2, 0.1,
                    snapshot_times=[0, 10])
    snap = traj.snapshots[-1]
    omega = assemble_omega(m, snap.u)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    hodge = hodge_decompose(flux_field(cons, snap.u))
    res = pointwise_lower_bound_check(snap.u, frame, hodge)
    assert res["centroids_checked"] > 0
    assert res["min_ratio"] >= 0.25 - 0.05


def test_pointwise_lower_bound_large_energy_probe(mesh2):
    # out-of-hypothesis: violations are counted and reported, never asserted
    m = Sphere(3)
    chi = cap_boundary(mesh2, m, 0.8)
    traj = run_flow(mesh2, m, chi, 2.0, 2 * mesh2.h ** 2, 0.1,
                    snapshot_times=[0, 2])
    snap = traj.snapshots[-1]
    omega = assemble_omega(m, snap.u)
    frame = gauge_frame(omega)
    cons = construct_AB(frame, omega)
    hodge = hodge_decompose(flux_field(cons, snap.u))
    res = pointwise_lower_bound_check(snap.u, frame, hodge)
    assert res["centroids_checked"] > 0
    assert isinstance(res["below_quarter"], int)


def test_h1_energy_check(mesh_at):
    mesh = mesh_at(2)
    m = Sphere(3)
    chi = cap_boundary(mesh, m, 0.12)
    traj = run_flow(mesh, m, chi, 6.0, 4 * mesh.h ** 2, 0.1,
                    snapshot_times=np.linspace(0, 6, 13))
    res = h1_energy_check(traj, 0.1)
    assert res["skipped"] is None
    assert len(res["rows"]) > 0
    for row in res["rows"]:
        assert np.isfinite(row["h1_over_energy"])
        assert np.isfinite(row["cdsthm_C"])
        # CDSTHM consistency: psi diagnostics bounded by C * h1 norm
        assert row["cdsthm_C"] > 0


def test_h1_energy_check_constant_flow(mesh2):
    m = Sphere(3)
    chi = np.tile([0.0, 0.0, 1.0], (len(mesh2.boundary_idx), 1))
    traj = run_flow(mesh2, m, chi, 2.0, 0.05, 0.1,
                    snapshot_times=np.linspace(0, 2, 5))
    res = h1_energy_check(traj, 0.1)
    assert res["skipped"] is None
    for row in res["rows"]:
        assert row["h1_density"] <= 1e-20
