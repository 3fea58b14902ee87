import numpy as np
import pytest

from heatflow.errors import MedialAxisError, UsageError
from heatflow.manifold import (CliffordTorus, LevelSetManifold,
                               RevolutionTorus, Sphere, assemble_omega,
                               from_config, normal_deviation_check)
from heatflow.mesh import gradient, interpolate, norms

from conftest import stereographic


def fd_projection_hessian(m, p, X, Y, h=1e-5):
    """Independent oracle: second differences of the projection map."""
    pp = m.project
    return (pp(p + h * (X + Y)) + pp(p - h * (X + Y))
            - pp(p + h * (X - Y)) - pp(p - h * (X - Y))) / (4 * h * h)


def test_sphere_projection():
    s = Sphere(3)
    assert np.allclose(s.project(np.array([2.0, 0.0, 0.0])), [1, 0, 0])
    with pytest.raises(MedialAxisError):
        s.project(np.zeros(3))


def test_torus_projection_closed_form():
    t = RevolutionTorus(2.0, 1.0)
    # oracle: center circle point (2,0,0), unit tube offset toward (4,0,0)
    assert np.allclose(t.project(np.array([4.0, 0.0, 0.0])), [3, 0, 0])
    with pytest.raises(MedialAxisError):
        t.project(np.array([0.0, 0.0, 0.5]))


def test_projection_idempotent_and_on_manifold():
    rng = np.random.default_rng(0)
    for m in (Sphere(3), Sphere(4), RevolutionTorus(2, 1), CliffordTorus()):
        pts = m.sample(rng, 60)
        pert = pts + 0.3 * m.reach * rng.standard_normal(pts.shape)
        q = m.project(pert)
        assert np.abs(m.project(q) - q).max() <= 1e-10
        assert m.constraint_violation(q).max() <= 1e-10


def test_sff_sphere_closed_form():
    s = Sphere(3)
    p = np.array([1.0, 0.0, 0.0])
    X = np.array([0.0, 1.0, 0.0])
    val = s.second_fundamental_form(p, X, X)
    assert np.allclose(val, [-1, 0, 0], atol=1e-12)
    fd = fd_projection_hessian(s, p, X, X)
    assert np.abs(val - fd).max() <= 1e-6


def test_sff_bilinear_zero():
    s = Sphere(3)
    p = np.array([0.0, 0.0, 1.0])
    Z = np.zeros(3)
    X = np.array([1.0, 0.0, 0.0])
    assert np.abs(s.second_fundamental_form(p, Z, X)).max() == 0.0


def test_sff_clifford_matches_fd_oracle():
    c = CliffordTorus()
    rng = np.random.default_rng(4)
    pts = c.sample(rng, 10)
    for p in pts:
        s = np.sqrt(2.0)
        e1 = np.array([-s * p[1], s * p[0], 0, 0])
        e2 = np.array([0, 0, -s * p[3], s * p[2]])
        for X, Y in [(e1, e1), (e2, e2), (e1, e2)]:
            val = c.second_fundamental_form(p, X, Y)
            fd = fd_projection_hessian(c, p, X, Y)
            assert np.abs(val - fd).max() <= 1e-6


def test_sff_symmetry_and_normality():
    rng = np.random.default_rng(9)
    for m in (Sphere(3), RevolutionTorus(2, 1), CliffordTorus()):
        pts = m.sample(rng, 100)
        T = m.curvature_tensor(pts)
        asym = np.abs(T - np.swapaxes(T, -1, -2)).max()
        assert asym <= 1e-8
        v = rng.standard_normal((100, m.n))
        X = m.tangent_project(pts, v)
        A = np.einsum("pijl,pj,pl->pi", T, X, X)
        tang_part = m._tangent_project_unchecked(pts, A)
        assert np.abs(tang_part).max() <= 1e-8 * max(1.0, np.abs(A).max())


def test_sff_rejects_non_tangent():
    s = Sphere(3)
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(UsageError):
        s.second_fundamental_form(p, p, p)
    with pytest.raises(UsageError):
        s.second_fundamental_form(np.array([1.1, 0, 0]),
                                  np.array([0, 1.0, 0]), np.array([0, 1.0, 0]))


def test_tangent_project():
    s = Sphere(3)
    p = np.array([1.0, 0.0, 0.0])
    v = np.array([5.0, 1.0, 0.0])
    assert np.allclose(s.tangent_project(p, v), [0, 1, 0], atol=1e-12)
    w = np.array([0.0, 0.3, -0.2])
    assert np.allclose(s.tangent_project(p, w), w, atol=1e-12)

    t = RevolutionTorus(2, 1)
    rng = np.random.default_rng(2)
    pts = t.sample(rng, 20)
    v = rng.standard_normal((20, 3))
    proj = t.tangent_project(pts, v)
    h = 1e-6

    def signed(p):
        return np.hypot(np.hypot(p[0], p[1]) - t.R, p[2]) - t.r

    for p, w in zip(pts, proj):
        grads = np.array([(signed(p + h * e) - signed(p - h * e)) / (2 * h)
                          for e in np.eye(3)])
        nrm = grads / np.linalg.norm(grads)
        assert abs(nrm @ w) <= 1e-8 * max(1.0, np.linalg.norm(w))


def test_normal_deviation_sphere_exact_half():
    s = Sphere(3)
    res = normal_deviation_check(s, samples=500, seed=1)
    # |(p-q).p| = |p-q|^2/2 exactly on the unit sphere
    assert abs(res["constant"] - 0.5) <= 1e-10
    assert res["pairs_skipped"] == 0


def test_normal_deviation_skips_coincident():
    s = Sphere(3)

    class Degenerate(Sphere):
        def sample(self, rng, count):
            return np.tile([1.0, 0.0, 0.0], (count, 1))

    res = normal_deviation_check(Degenerate(3), samples=10, seed=0)
    assert res["pairs_skipped"] == 10
    assert res["constant"] == 0.0


def test_normal_deviation_torus_stable():
    t = RevolutionTorus(2, 1)
    c1 = normal_deviation_check(t, samples=400, seed=3)["constant"]
    c2 = normal_deviation_check(t, samples=1600, seed=3)["constant"]
    assert np.isfinite(c1) and np.isfinite(c2)
    assert abs(c2 - c1) <= 0.10 * max(c1, c2)


def test_assemble_omega_constant_map(mesh2):
    s = Sphere(3)
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([0.0, 0.0, 1.0],
                                                        x.shape + (3,)))
    om = assemble_omega(s, u)
    assert om.l2_norm() == 0.0


def test_assemble_omega_sphere_reduction(mesh2):
    """General tensor path vs the sphere reduction
    Omega^i_j = u^i grad(u^j) - u^j grad(u^i) (entrywise oracle)."""
    s = Sphere(3)
    u = interpolate(mesh2, stereographic)
    om = assemble_omega(s, u)
    g = gradient(u).values                              # (nt, 2, 3)
    centers = s.project(u.values[mesh2.triangles].mean(axis=1))
    oracle = (centers[:, None, :, None] * g[:, :, None, :]
              - centers[:, None, None, :] * g[:, :, :, None])
    assert np.abs(om.values - oracle).max() <= 1e-12


def test_assemble_omega_antisymmetric_and_bounded(mesh2):
    rng = np.random.default_rng(12)
    for m in (Sphere(3), RevolutionTorus(2, 1)):
        base = m.base_point()
        def smooth(x, y):
            off = 0.3 * np.stack([np.sin(x), np.cos(y) - 1, x * y], axis=-1)
            return m.project(base + off)
        u = interpolate(mesh2, smooth)
        om = assemble_omega(m, u)
        assert np.abs(om.values + np.swapaxes(om.values, -1, -2)).max() <= 1e-14
        grad_l2 = norms(gradient(u))["L2"]
        assert om.l2_norm() <= 2.0 * m.sff_sup_bound() * grad_l2


def test_assemble_omega_rejects_off_manifold(mesh2):
    s = Sphere(3)
    u = interpolate(mesh2, lambda x, y: np.stack(
        [np.ones_like(x), x, y], axis=-1))
    with pytest.raises(UsageError):
        assemble_omega(s, u)


def test_levelset_matches_sphere():
    generic = LevelSetManifold(lambda p: np.array([p @ p - 1.0]), n=3,
                               reach=1.0)
    s = Sphere(3)
    rng = np.random.default_rng(8)
    pts = s.sample(rng, 5) * 1.2
    for p in pts:
        q = generic.project(p)
        assert np.abs(q - s.project(p)).max() <= 1e-9
    p = s.project(pts[0])
    X = s.tangent_project(p, np.array([0.1, -0.2, 0.3]))
    val = generic.second_fundamental_form(p, X, X)
    ref = s.second_fundamental_form(p, X, X)
    assert np.abs(val - ref).max() <= 1e-5


def test_from_config():
    assert from_config({"kind": "sphere", "n": 4}).n == 4
    assert from_config({"kind": "torus3", "R": 3.0, "r": 1.0}).reach == 1.0
    assert from_config({"kind": "clifford"}).n == 4
    from heatflow.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        from_config({"kind": "sphere", "radius": 2})
    with pytest.raises(ConfigurationError):
        from_config({"kind": "banana"})


@pytest.mark.parametrize("n", [2, 3.0, "3", True])
def test_from_config_sphere_needs_integer_n_of_at_least_3(n):
    from heatflow.errors import ConfigurationError
    with pytest.raises(ConfigurationError, match=r"target\.n"):
        from_config({"kind": "sphere", "n": n})
