import dataclasses

import numpy as np
import pytest

from heatflow.errors import UsageError
from heatflow.flow import (cauchy_certificate, convexity_report,
                           cross_term_check, decay_identity_residual,
                           dirichlet_energy, energy_difference_raw,
                           gradient_gap_raw, initial_state,
                           mean_value_check, run_flow, step, tension,
                           ut_monotonicity_check)
from heatflow.manifold import CliffordTorus, Sphere
from heatflow.mesh import Field, gradient, interpolate, norms

from conftest import cap_boundary, stereographic

_traj_cache = {}


def small_sphere_traj(mesh_at, ref=2, t_end=6.0, delta=0.12):
    key = (ref, t_end, delta)
    if key not in _traj_cache:
        mesh = mesh_at(ref)
        m = Sphere(3)
        chi = cap_boundary(mesh, m, delta)
        _traj_cache[key] = run_flow(mesh, m, chi, t_end, 4 * mesh.h ** 2, 0.1,
                                    snapshot_times=np.linspace(0, t_end, 25))
    return _traj_cache[key]


def test_energy_constant_map(mesh2):
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([1.0, 0.0, 0.0],
                                                        x.shape + (3,)))
    e = dirichlet_energy(u)
    assert e["E_raw"] <= 1e-28 and e["E_half"] <= 1e-28


def test_energy_stereographic_hemisphere(mesh_at):
    # conformal map covering a hemisphere: E_raw -> 2 * area = 4 pi
    errs = []
    for r in (3, 4):
        e = dirichlet_energy(interpolate(mesh_at(r), stereographic))
        errs.append(abs(e["E_raw"] - 4 * np.pi))
        assert e["E_half"] == pytest.approx(e["E_raw"] / 2)
    assert errs[0] <= 0.02 * 4 * np.pi
    assert errs[1] <= 0.3 * errs[0]


def test_energy_clifford_map(mesh_at):
    # u = (cos ax, sin ax, cos by, sin by)/sqrt(2): |grad u|^2 = (a^2+b^2)/2
    a, b = 1.0, 2.0
    s = 1 / np.sqrt(2)

    def cliff(x, y):
        return np.stack([s * np.cos(a * x), s * np.sin(a * x),
                         s * np.cos(b * y), s * np.sin(b * y)], axis=-1)

    expect = np.pi * (a * a + b * b) / 2.0
    errs = [abs(dirichlet_energy(interpolate(mesh_at(r), cliff))["E_raw"]
                - expect) for r in (3, 4)]
    assert errs[0] <= 0.02 * expect
    assert errs[1] <= 0.35 * errs[0]


def test_tension_constant_map(mesh2):
    u = interpolate(mesh2, lambda x, y: np.broadcast_to([0.0, 0.0, 1.0],
                                                        x.shape + (3,)))
    t = tension(u, Sphere(3))
    assert np.abs(t.values).max() <= 1e-12


def test_tension_harmonic_first_order(mesh_at):
    vals = []
    for r in (2, 3, 4):
        m = mesh_at(r)
        t = tension(interpolate(m, stereographic), Sphere(3))
        vals.append(norms(t)["L2"])
    assert vals[1] <= 0.7 * vals[0]
    assert vals[2] <= 0.7 * vals[1]


def test_tension_is_energy_gradient(mesh2):
    # -tension is an ascent direction: E decreases along +tension
    m = Sphere(3)
    rng = np.random.default_rng(31)

    def wobbly(x, y):
        off = np.stack([0.3 * np.sin(2 * x), 0.3 * x * y, np.ones_like(x)],
                       axis=-1)
        return m.project(off)

    u = interpolate(mesh2, wobbly)
    tau_field = tension(u, m)
    assert norms(tau_field)["L2"] > 1e-6
    e0 = dirichlet_energy(u)["E_raw"]
    s = 1e-4
    moved = u.values + s * tau_field.values
    moved[mesh2.interior_idx] = m.project(moved[mesh2.interior_idx])
    e1 = dirichlet_energy(Field(mesh2, moved))["E_raw"]
    assert e1 < e0


def test_step_constant_fixed_point(mesh2):
    m = Sphere(3)
    chi = np.tile([0.0, 0.0, 1.0], (len(mesh2.boundary_idx), 1))
    state = initial_state(mesh2, m, chi)
    new = step(state, 0.01, m, chi)
    assert np.abs(new.u.values - state.u.values).max() <= 1e-12


def test_step_boundary_pinned_exactly(mesh_at):
    traj = small_sphere_traj(mesh_at)
    for s in traj.snapshots:
        assert np.abs(s.u.values[traj.mesh.boundary_idx] - traj.chi).max() == 0.0


def test_step_harmonic_data_stationary(mesh_at):
    # restart from a converged state: W^{1,2} drift over [0,1] stays tiny
    traj = small_sphere_traj(mesh_at)
    mesh = traj.mesh
    m = traj.manifold
    u_inf = traj.snapshots[-1].u
    traj2 = run_flow(mesh, m, traj.chi, 1.0, 4 * mesh.h ** 2, 0.1,
                     snapshot_times=[0.0, 1.0])
    drift = np.inf
    from heatflow.flow import gradient_gap_raw
    state = initial_state(mesh, m, traj.chi)
    # flow restarted from u_inf directly
    from heatflow.flow import FlowState
    st = FlowState(0.0, u_inf, Field(mesh, np.zeros_like(u_inf.values)),
                   traj.snapshots[-1].tension)
    cur = st
    for _ in range(20):
        cur = step(cur, 4 * mesh.h ** 2, m, traj.chi)
    gap = np.sqrt(gradient_gap_raw(cur.u, u_inf)) \
        + norms(Field(mesh, cur.u.values - u_inf.values))["L2"]
    assert gap <= mesh.h


def test_flow_energy_monotone(mesh_at):
    traj = small_sphere_traj(mesh_at)
    diffs = np.diff(traj.energy)
    assert diffs.max() <= 1e-10 * traj.energy[0]


def test_gradient_flow_consistency(mesh_at):
    # (E(t_{k+1}) - E(t_k)) / tau ~ -2 ||u_t||^2 within O(tau + h)
    traj = small_sphere_traj(mesh_at)
    taus = np.diff(traj.times)
    dE = np.diff(traj.energy) / taus
    target = -2.0 * traj.ut_l2_sq[1:]
    scale = max(traj.ut_l2_sq.max(), 1e-30)
    bound = 30.0 * (taus.max() + traj.mesh.h) * scale
    assert np.abs(dE - target).max() <= bound


def test_decay_identity_trivial_cases(mesh_at):
    traj = small_sphere_traj(mesh_at)
    t = traj.times[len(traj.times) // 2]
    assert decay_identity_residual(traj, t, t) == 0.0
    with pytest.raises(UsageError):
        decay_identity_residual(traj, 0.0, 0.12345)


def test_decay_identity_constant_flow(mesh2):
    m = Sphere(3)
    chi = np.tile([0.0, 0.0, 1.0], (len(mesh2.boundary_idx), 1))
    traj = run_flow(mesh2, m, chi, 2.0, 0.05, 0.1, snapshot_times=[0, 2])
    r = decay_identity_residual(traj, traj.times[1], traj.times[-1])
    assert r <= 1e-20


def test_convexity_report(mesh_at):
    traj = small_sphere_traj(mesh_at)
    st = traj.snapshot_times
    pairs = [(st[i], st[j]) for i in range(1, 8) for j in range(i + 1, 12)]
    rep = convexity_report(traj, pairs)
    assert not rep.failures
    assert rep.min_ratio is None or rep.min_ratio >= 0.2
    with pytest.raises(UsageError):
        convexity_report(traj, [(st[3], st[3])])


def test_convexity_against_limit_map(mesh_at):
    # stationary-limit comparison keeps the stronger 1/2 coefficient
    traj = small_sphere_traj(mesh_at)
    st = traj.snapshot_times
    t_inf = st[-1]
    pairs = [(t, t_inf) for t in st[1:10]]
    rep = convexity_report(traj, pairs, slack=0.05, coefficient=0.5)
    assert not rep.failures


def test_ut_monotonicity(mesh_at):
    traj = small_sphere_traj(mesh_at)
    res = ut_monotonicity_check(traj)
    assert res["T0"] is not None
    assert res["violations"] == 0


def test_ut_monotonicity_constant_flow(mesh2):
    m = Sphere(3)
    chi = np.tile([0.0, 0.0, 1.0], (len(mesh2.boundary_idx), 1))
    traj = run_flow(mesh2, m, chi, 2.0, 0.05, 0.1,
                    snapshot_times=np.linspace(0, 2, 5))
    res = ut_monotonicity_check(traj)
    assert res["T0"] == 0.0
    assert res["violations"] == 0


def test_mean_value_inequality(mesh_at):
    traj = small_sphere_traj(mesh_at)
    st = traj.snapshot_times
    pairs = [(st[i], st[j]) for i in range(1, 6) for j in range(i + 2, 14, 3)]
    res = mean_value_check(traj, pairs)
    assert res["violations"] == 0


def test_cross_term(mesh_at):
    traj = small_sphere_traj(mesh_at)
    st = traj.snapshot_times
    res = cross_term_check(traj, st[2], st[6], 0.1)
    assert not res["degenerate"]
    assert np.isfinite(res["C"])
    with pytest.raises(UsageError):
        cross_term_check(traj, st[2], st[2], 0.1)


def test_cross_term_scaling_sweep(mesh_at):
    # quartering the boundary energy must not inflate the measured constant
    mesh = mesh_at(2)
    m = Sphere(3)
    cs = []
    for delta in (0.12, 0.06):
        chi = cap_boundary(mesh, m, delta)
        traj = run_flow(mesh, m, chi, 4.0, 4 * mesh.h ** 2, 0.1,
                        snapshot_times=np.linspace(0, 4, 17))
        st = traj.snapshot_times
        vals = [cross_term_check(traj, st[i], st[j], 0.1)["C"]
                for i, j in [(1, 4), (2, 6), (3, 8)]]
        vals = [v for v in vals if v is not None]
        assert vals
        cs.append(max(vals))
    assert cs[1] <= 2.0 * cs[0] + 1e-12


def test_cauchy_certificate(mesh_at):
    traj = small_sphere_traj(mesh_at)
    res = cauchy_certificate(traj)
    assert res["passes"]
    assert res["pairs"] > 0


def test_cauchy_certificate_constant_flow(mesh2):
    m = Sphere(3)
    chi = np.tile([0.0, 0.0, 1.0], (len(mesh2.boundary_idx), 1))
    traj = run_flow(mesh2, m, chi, 2.0, 0.05, 0.1,
                    snapshot_times=np.linspace(0, 2, 5))
    res = cauchy_certificate(traj)
    assert res["value"] <= res["threshold"] + 1e-20


def test_large_energy_probe_reported_not_asserted(mesh2):
    # out-of-hypothesis probe: E(u0) >> eps0; certificates are recorded only
    m = Sphere(3)
    chi = cap_boundary(mesh2, m, 0.8)
    traj = run_flow(mesh2, m, chi, 3.0, 2 * mesh2.h ** 2, 0.1,
                    snapshot_times=np.linspace(0, 3, 13))
    assert traj.energy[0] > 0.1
    res = cauchy_certificate(traj)
    assert set(res) >= {"value", "threshold", "passes", "pairs"}
    st = traj.snapshot_times
    rep = convexity_report(traj, [(st[1], st[4])], enforce_t0=False)
    assert rep.pairs[0]["status"] in ("pass", "fail", "degenerate")


def test_clifford_flow_smoke(mesh2):
    m = CliffordTorus()
    chi = cap_boundary(mesh2, m, 0.1)
    traj = run_flow(mesh2, m, chi, 2.0, 4 * mesh2.h ** 2, 0.1,
                    snapshot_times=[0, 1, 2])
    assert np.all(np.diff(traj.energy) <= 1e-10 * traj.energy[0])
    assert m.constraint_violation(traj.snapshots[-1].u.values).max() <= 1e-10


def _post_t0_snapshots(traj):
    t0 = traj.detected_t0()
    return [s for s in traj.snapshots if s.t >= t0 - 1e-12]


def test_certificates_match_pairwise_reference_bit_for_bit(mesh_at):
    # per-snapshot gradients must not move a single bit against the
    # pair-by-pair wrappers
    traj = small_sphere_traj(mesh_at)
    snaps = _post_t0_snapshots(traj)
    value, max_denom, count = -np.inf, 0.0, 0
    for i in range(len(snaps)):
        for j in range(i + 1, len(snaps)):
            denom = gradient_gap_raw(snaps[i].u, snaps[j].u)
            diff = energy_difference_raw(snaps[i].u, snaps[j].u)
            value = max(value, denom - 4.0 * diff)
            max_denom = max(max_denom, denom)
            count += 1
    res = cauchy_certificate(traj)
    assert count > 0
    assert res["value"] == float(value)
    assert res["max_denominator"] == float(max_denom)
    assert res["pairs"] == count

    st = traj.snapshot_times
    pairs = [(st[i], st[j]) for i in range(1, 8) for j in range(i + 1, 12)]
    for row, (t1, t2) in zip(convexity_report(traj, pairs).pairs, pairs):
        u1, u2 = traj.snapshot_at(t1).u, traj.snapshot_at(t2).u
        assert row["difference"] == energy_difference_raw(u1, u2)
        assert row["denominator"] == gradient_gap_raw(u1, u2)

    s1, s2 = traj.snapshot_at(st[2]), traj.snapshot_at(st[6])
    mesh = traj.mesh
    diff_c = (s1.u.values - s2.u.values)[mesh.triangles].mean(axis=1)
    dens2 = (gradient(s2.u).values ** 2).reshape(mesh.n_triangles, -1).sum(axis=1)
    lhs = float((mesh.tri_areas * (diff_c ** 2).sum(axis=1) * dens2).sum())
    res = cross_term_check(traj, st[2], st[6], 0.1)
    assert res["lhs"] == lhs
    assert res["rhs"] == gradient_gap_raw(s1.u, s2.u)


def test_certificates_compute_each_snapshot_gradient_once(mesh_at, monkeypatch):
    # per-pair gradients would make O(S^2) calls here
    import heatflow.flow as flow_mod
    traj = small_sphere_traj(mesh_at)
    calls = []

    def counting_gradient(f):
        calls.append(f)
        return gradient(f)

    monkeypatch.setattr(flow_mod, "gradient", counting_gradient)
    res = cauchy_certificate(traj)
    n_post = len(_post_t0_snapshots(traj))
    assert n_post >= 3 and res["pairs"] == n_post * (n_post - 1) // 2
    assert len(calls) == n_post

    calls.clear()
    st = traj.snapshot_times
    pairs = [(st[i], st[j]) for i in range(1, 8) for j in range(i + 1, 12)]
    convexity_report(traj, pairs)
    assert len(calls) <= len({t for pair in pairs for t in pair})

    calls.clear()
    cross_term_check(traj, st[2], st[6], 0.1)
    assert len(calls) == 2


def test_cauchy_certificate_without_pairs_does_not_pass(mesh_at):
    # eps0 just below the penultimate kinetic norm moves T0 to the last step,
    # so exactly one snapshot lies at or after T0 and no pair exists
    mesh = mesh_at(1)
    m = Sphere(3)
    traj = run_flow(mesh, m, cap_boundary(mesh, m, 0.12), 2.0,
                    4 * mesh.h ** 2, 0.1, snapshot_times=np.linspace(0, 2, 9))
    late = dataclasses.replace(traj, eps0=float(traj.ut_l2_sq[-2]))
    assert late.detected_t0() is not None
    res = cauchy_certificate(late)
    assert res["pairs"] == 0
    assert res["passes"] is None
    assert res["reason"] == "no snapshot pair at or after T0 to evaluate"
    res = cauchy_certificate(dataclasses.replace(traj, eps0=0.0))
    assert res["passes"] is None and res["reason"] == "T0 undetected"
