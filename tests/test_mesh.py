import numpy as np
import pytest

from heatflow.errors import ConfigurationError, InputError, UsageError
from heatflow.mesh import (CellVectorField, Field, build_disk_mesh, curl_load,
                           div_load, gradient, interpolate, jacobian_product,
                           load_mesh, norms, perp_gradient, save_mesh,
                           weak_div_curl)

from conftest import stereographic


def test_refinement_guard():
    with pytest.raises(ConfigurationError):
        build_disk_mesh(11)
    with pytest.raises(ConfigurationError):
        build_disk_mesh(-1)
    with pytest.raises(ConfigurationError):
        build_disk_mesh(1.5)


def test_coarse_area(mesh_at):
    assert abs(mesh_at(0).area - np.pi) <= 0.05 * np.pi


def test_refined_area_and_h_halving(mesh_at):
    m0, m3 = mesh_at(0), mesh_at(3)
    assert abs(m3.area - np.pi) <= 0.001 * np.pi
    assert abs(m3.h - m0.h / 8.0) <= 0.15 * (m0.h / 8.0)


def test_determinism(mesh_at):
    a = mesh_at(2)
    b = build_disk_mesh(2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)


def test_vertices_inside_disk_boundary_on_circle(mesh3):
    r = np.linalg.norm(mesh3.vertices, axis=1)
    assert np.all(r <= 1.0 + 1e-12)
    assert np.all(r[mesh3.boundary_idx] >= 1.0 - 2 * mesh3.h ** 2)
    assert np.allclose(r[mesh3.boundary_idx], 1.0, atol=1e-15)


def test_conforming_and_shape_regular(mesh3):
    _, counts = mesh3.edges
    assert counts.max() <= 2
    assert mesh3.min_angle_deg >= 20.0


def test_stiffness_is_m_matrix(mesh3):
    K = mesh3.stiffness.tocoo()
    off = K.data[K.row != K.col]
    assert off.max() <= 1e-12


def test_gradient_linear_exactness(mesh2):
    gx = gradient(interpolate(mesh2, lambda x, y: x)).values
    assert np.allclose(gx[:, 0], 1.0, atol=1e-12)
    assert np.allclose(gx[:, 1], 0.0, atol=1e-12)
    gc = gradient(interpolate(mesh2, lambda x, y: np.full_like(x, 3.7))).values
    assert np.abs(gc).max() <= 1e-12


def test_gradient_quadratic_first_order(mesh_at):
    errs = []
    for r in (2, 3):
        m = mesh_at(r)
        g = gradient(interpolate(m, lambda x, y: x * x + y * y)).values
        exact = 2.0 * m.centroids
        errs.append(np.abs(g - exact).max())
    assert errs[0] <= 2.0 * mesh_at(2).h
    assert errs[1] <= 0.7 * errs[0]


def test_perp_gradient(mesh2):
    gp = perp_gradient(interpolate(mesh2, lambda x, y: x)).values
    assert np.allclose(gp[:, 0], 0.0, atol=1e-12)
    assert np.allclose(gp[:, 1], 1.0, atol=1e-12)
    gp = perp_gradient(interpolate(mesh2, lambda x, y: y)).values
    assert np.allclose(gp[:, 0], -1.0, atol=1e-12)
    assert np.allclose(gp[:, 1], 0.0, atol=1e-12)


def test_gradient_perp_orthogonal(mesh2):
    rng = np.random.default_rng(3)
    f = Field(mesh2, rng.standard_normal(mesh2.n_vertices))
    g = gradient(f).values
    gp = perp_gradient(f).values
    dots = (g * gp).sum(axis=1)
    assert np.abs(dots).max() <= 1e-12 * max(1.0, (g ** 2).sum(axis=1).max())


def test_gradient_linearity(mesh2):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(mesh2.n_vertices)
    b = rng.standard_normal(mesh2.n_vertices)
    ga = gradient(Field(mesh2, a)).values
    gb = gradient(Field(mesh2, b)).values
    gab = gradient(Field(mesh2, a + b)).values
    assert np.abs(gab - ga - gb).max() <= 1e-12 * max(1.0, np.abs(ga).max())


def test_jacobian_product_closed_forms(mesh2):
    x = interpolate(mesh2, lambda x, y: x)
    y = interpolate(mesh2, lambda x, y: y)
    assert np.allclose(jacobian_product(x, y), -1.0, atol=1e-12)
    f = interpolate(mesh2, lambda x, y: np.sin(x) + y * y)
    assert np.abs(jacobian_product(f, f)).max() <= 1e-12


def test_jacobian_product_quadratic(mesh3):
    a = interpolate(mesh3, lambda x, y: x * x + y * y)
    b = interpolate(mesh3, lambda x, y: x)
    # grad(a).perp_grad(b) = (2x, 2y).(0, 1) = 2y
    vals = jacobian_product(a, b)
    exact = 2.0 * mesh3.centroids[:, 1]
    assert np.abs(vals - exact).max() <= 2.0 * mesh3.h


def test_jacobian_integral_depends_on_trace_only(mesh_at):
    mesh = mesh_at(2)
    rng = np.random.default_rng(5)
    g = Field(mesh, rng.standard_normal(mesh.n_vertices))
    trace = rng.standard_normal(mesh.n_vertices)
    f1 = trace.copy()
    f1[mesh.interior_idx] = rng.standard_normal(len(mesh.interior_idx))
    f2 = trace.copy()
    f2[mesh.interior_idx] = rng.standard_normal(len(mesh.interior_idx))
    i1 = (mesh.tri_areas * jacobian_product(Field(mesh, f1), g)).sum()
    i2 = (mesh.tri_areas * jacobian_product(Field(mesh, f2), g)).sum()
    scale = max(abs(i1), abs(i2), 1.0)
    assert abs(i1 - i2) <= 1e-10 * scale


def test_norms_constant_field(mesh3):
    one = interpolate(mesh3, lambda x, y: np.ones_like(x))
    n = norms(one)
    assert abs(n["L1"] - mesh3.area) <= 1e-12
    assert abs(n["L2"] ** 2 - mesh3.area) <= 1e-12
    assert n["Linf"] == 1.0
    zero = interpolate(mesh3, lambda x, y: np.zeros_like(x))
    nz = norms(zero)
    assert nz["L1"] == nz["L2"] == nz["Linf"] == 0.0


def test_norms_coordinate_field(mesh_at):
    # int_{B_1} x^2 = pi/4; quadrature is exact, the gap is the polygon deficit
    errs = []
    for r in (3, 4):
        n = norms(interpolate(mesh_at(r), lambda x, y: x))
        errs.append(abs(n["L2"] ** 2 - np.pi / 4))
    assert errs[0] <= 2e-3
    assert errs[1] <= 0.3 * errs[0]


def test_norms_l2_matches_dense_quadrature(mesh2):
    # 3-point Gauss rule (exact for quadratics) as the independent oracle
    rng = np.random.default_rng(7)
    coef = rng.standard_normal(3)
    f = interpolate(mesh2, lambda x, y: coef[0] + coef[1] * x + coef[2] * y)
    l2sq = norms(f)["L2"] ** 2
    pts = mesh2.vertices[mesh2.triangles]
    mids = np.stack([(pts[:, 0] + pts[:, 1]) / 2, (pts[:, 1] + pts[:, 2]) / 2,
                     (pts[:, 2] + pts[:, 0]) / 2], axis=1)
    vals = coef[0] + coef[1] * mids[..., 0] + coef[2] * mids[..., 1]
    oracle = ((vals ** 2).mean(axis=1) * mesh2.tri_areas).sum()
    assert abs(l2sq - oracle) <= 1e-12 * max(1.0, oracle)


def test_weak_div_curl(mesh3):
    interior = mesh3.interior_idx
    const = CellVectorField(mesh3, np.tile([1.0, 0.0], (mesh3.n_triangles, 1)))
    d, c = weak_div_curl(const)
    assert np.abs(d.values[interior]).max() <= 1e-10
    assert np.abs(c.values[interior]).max() <= 1e-10

    grad_r2 = gradient(interpolate(mesh3, lambda x, y: x * x + y * y))
    d, _ = weak_div_curl(grad_r2)
    assert np.abs(d.values[interior] - 4.0).max() <= 20.0 * mesh3.h

    rot = CellVectorField(mesh3, np.stack([-mesh3.centroids[:, 1],
                                           mesh3.centroids[:, 0]], axis=1))
    d, c = weak_div_curl(rot)
    assert np.abs(c.values[interior] - 2.0).max() <= 20.0 * mesh3.h
    assert np.abs(d.values[interior]).max() <= 20.0 * mesh3.h


def test_interpolate(mesh2):
    const = interpolate(mesh2, lambda x, y: np.stack([np.ones_like(x),
                                                      2 * np.ones_like(x)],
                                                     axis=-1))
    assert np.allclose(const.values, [1.0, 2.0])
    ident = interpolate(mesh2, lambda x, y: np.stack([x, y], axis=-1))
    assert np.allclose(ident.values, mesh2.vertices)
    sphere = interpolate(mesh2, stereographic)
    assert np.abs(np.linalg.norm(sphere.values, axis=1) - 1.0).max() <= 1e-14
    with pytest.raises(InputError):
        interpolate(mesh2, lambda x, y: x / (x - x))


def test_field_validation(mesh2):
    with pytest.raises(UsageError):
        Field(mesh2, np.zeros(mesh2.n_vertices - 1))
    bad = np.zeros(mesh2.n_vertices)
    bad[0] = np.nan
    with pytest.raises(UsageError):
        Field(mesh2, bad)


def test_mesh_io_roundtrip(tmp_path, mesh2):
    path = tmp_path / "mesh.txt"
    save_mesh(mesh2, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, mesh2.vertices)
    assert np.array_equal(back.triangles, mesh2.triangles)
    assert np.array_equal(back.boundary, mesh2.boundary)


def _reference_operators(mesh):
    """Per-triangle loops from the hat-function formulas: the hat gradients
    are the last two rows of inv([[1, x_l, y_l]]), the centroid the vertex
    mean, the stiffness and loads sums of A_t grad(phi_i) . (...)."""
    nv, nt = mesh.n_vertices, mesh.n_triangles
    grads = np.empty((nt, 3, 2))
    areas = np.empty(nt)
    for t, tri in enumerate(mesh.triangles):
        p = mesh.vertices[tri]
        V = np.column_stack([np.ones(3), p])
        grads[t] = np.linalg.inv(V)[1:].T
        areas[t] = 0.5 * abs(np.linalg.det(V))
    K = np.zeros((nv, nv))
    mass = np.zeros(nv)
    c2v = np.zeros((nv, nt))
    for t, tri in enumerate(mesh.triangles):
        for i in range(3):
            mass[tri[i]] += areas[t] / 3.0
            c2v[tri[i], t] += areas[t] / 3.0
            for j in range(3):
                K[tri[i], tri[j]] += areas[t] * grads[t, i] @ grads[t, j]
    return grads, areas, K, mass, c2v


def _ref_gradient(mesh, grads, vals):
    out = np.zeros((mesh.n_triangles, 2) + vals.shape[1:])
    for t, tri in enumerate(mesh.triangles):
        for l in range(3):
            out[t] += np.multiply.outer(grads[t, l], vals[tri[l]])
    return out


def _ref_loads(mesh, grads, areas, F):
    div = np.zeros((mesh.n_vertices,) + F.shape[2:])
    curl = np.zeros_like(div)
    for t, tri in enumerate(mesh.triangles):
        for l in range(3):
            gx, gy = grads[t, l]
            div[tri[l]] -= areas[t] * (gx * F[t, 0] + gy * F[t, 1])
            curl[tri[l]] += areas[t] * (gy * F[t, 0] - gx * F[t, 1])
    return div, curl


def _close(a, b, rtol=1e-13):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() <= rtol * max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("payload", [(3,), (3, 3)])
def test_operators_match_per_triangle_reference(mesh_at, payload):
    mesh = mesh_at(1)
    grads, areas, K, mass, c2v = _reference_operators(mesh)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((mesh.n_vertices,) + payload)
    F = rng.standard_normal((mesh.n_triangles, 2) + payload)

    assert _close(gradient(Field(mesh, vals)).values, _ref_gradient(mesh, grads, vals))
    assert _close(mesh.centroids, mesh.vertices[mesh.triangles].sum(axis=1) / 3.0)
    assert _close(mesh.at_centroids(vals),
                  np.array([vals[tri].sum(axis=0) / 3.0 for tri in mesh.triangles]))
    assert _close(mesh.stiffness.toarray(), K)
    assert _close(mesh.lumped_mass, mass)
    assert _close(mesh.cell_to_vertex.toarray(), c2v)
    div, curl = _ref_loads(mesh, grads, areas, F)
    assert _close(div_load(mesh, F), div)
    assert _close(curl_load(mesh, F), curl)
    wd, wc = weak_div_curl(CellVectorField(mesh, F))
    m = mass.reshape((-1,) + (1,) * len(payload))
    assert _close(wd.values, div / m)
    assert _close(wc.values, curl / m)


def test_frame_energy_gradient_matches_per_triangle_reference(mesh_at):
    from heatflow.gauge import _frame_energy_grad
    mesh = mesh_at(1)
    grads, areas, _, _, _ = _reference_operators(mesh)
    rng = np.random.default_rng(4)
    n = 3
    Pv = rng.standard_normal((mesh.n_vertices, n, n))
    omega = rng.standard_normal((mesh.n_triangles, 2, n, n))
    E_ref = 0.0
    grad_ref = np.zeros_like(Pv)
    for t, tri in enumerate(mesh.triangles):
        Pbar = Pv[tri].sum(axis=0) / 3.0
        for a in range(2):
            M = sum(grads[t, l, a] * Pv[tri[l]] for l in range(3)) + omega[t, a] @ Pbar
            E_ref += areas[t] * (M ** 2).sum()
            for l in range(3):
                grad_ref[tri[l]] += 2.0 * areas[t] * (grads[t, l, a] * M
                                                      + omega[t, a].T @ M / 3.0)
    E, grad = _frame_energy_grad(mesh, Pv, omega)
    assert _close(E, E_ref)
    assert _close(grad, grad_ref)
