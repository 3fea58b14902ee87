"""Harmonic map heat flow on the disk with its monitors and certificates.

The time stepper is linearly implicit: solve (I - tau*Laplace) v = u + tau*G(u)
with the trace pinned to the boundary data, then project v back to the target
pointwise. G is the curvature nonlinearity (|grad u|^2 u for the sphere), so
the scheme follows u_t = Laplace(u) + G(u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import _step_factor, cell_load, solve_dirichlet_lifted
from .errors import StepSizeError, UsageError
from .manifold import TargetManifold
from .mesh import DiskMesh, Field, gradient

NO_PAIRS = "no snapshot pair at or after T0 to evaluate"


def dirichlet_energy(u: Field) -> dict:
    """Dirichlet energy in both conventions: E_half = E_raw / 2."""
    g = gradient(u).values
    dens = (g ** 2).reshape(u.mesh.n_triangles, -1).sum(axis=1)
    raw = float((u.mesh.tri_areas * dens).sum())
    return {"E_half": 0.5 * raw, "E_raw": raw}


def _flat_gradient(u: Field) -> np.ndarray:
    """Per-triangle gradient of u as an (nt, 2 * value_dim) array."""
    return gradient(u).values.reshape(u.mesh.n_triangles, -1)


def _energy_difference(areas, g1, g2) -> float:
    """sum a (g1 - g2).(g1 + g2) over triangles, for flat gradients. The
    per-triangle product form avoids the cancellation of E(g1) - E(g2)."""
    return float((areas * ((g1 - g2) * (g1 + g2)).sum(axis=1)).sum())


def _gradient_gap(areas, g1, g2) -> float:
    """sum a |g1 - g2|^2 over triangles, for flat gradients."""
    return float((areas * ((g1 - g2) ** 2).sum(axis=1)).sum())


def _snapshot_gradients(traj, snaps) -> np.ndarray:
    """Flat gradients of the given snapshots in one (S, nt, 2n) block. A
    certificate call holds it only while it runs (S nt 2n doubles) and
    frees it in one piece; nothing caches it on the trajectory."""
    grads = np.empty((len(snaps), traj.mesh.n_triangles, 2 * traj.manifold.n))
    for g, s in zip(grads, snaps):
        g[...] = _flat_gradient(s.u)
    return grads


def energy_difference_raw(u1: Field, u2: Field) -> float:
    """E_raw(u1) - E_raw(u2) computed per triangle to avoid cancellation."""
    return _energy_difference(u1.mesh.tri_areas, _flat_gradient(u1),
                              _flat_gradient(u2))


def gradient_gap_raw(u1: Field, u2: Field) -> float:
    """int |grad u1 - grad u2|^2."""
    return _gradient_gap(u1.mesh.tri_areas, _flat_gradient(u1),
                         _flat_gradient(u2))


def _derived(u: Field, m: TargetManifold):
    """Gradient, raw energy, curvature term, and tension of one state, each
    computed once (the stepping loop calls this every step)."""
    mesh = u.mesh
    g = gradient(u).values
    e_raw = float((mesh.tri_areas
                   * (g ** 2).reshape(mesh.n_triangles, -1).sum(axis=1)).sum())
    centers = m.project(mesh.at_centroids(u.values))
    per_tri = m.curvature_flow_term(centers, g)
    G = cell_load(mesh, per_tri) / mesh.lumped_mass[:, None]
    lap = -(mesh.stiffness @ u.values) / mesh.lumped_mass[:, None]
    tang = m._tangent_project_unchecked(u.values, lap + G)
    tang[mesh.boundary_idx] = 0.0
    return {"energy_raw": e_raw, "curvature": G, "tension": Field(mesh, tang)}


def tension(u: Field, m: TargetManifold) -> Field:
    """Discrete tension field: tangential part of the weak Laplacian plus the
    curvature term; zero at boundary vertices (trace is pinned there)."""
    viol = float(np.max(m.constraint_violation(u.values)))
    if viol > 1e-8:
        raise UsageError(f"map is off the manifold by {viol:.2e}")
    return _derived(u, m)["tension"]


@dataclass
class FlowState:
    t: float
    u: Field
    ut: Field
    tension: Field
    cache: dict = field(default=None, repr=False, compare=False)


@dataclass
class FlowTrajectory:
    """Stored flow run: per-step monitors plus full snapshots at chosen times."""

    mesh: DiskMesh
    manifold: TargetManifold
    chi: np.ndarray                    # boundary vertex values, (nb, n)
    eps0: float
    times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    energy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ut_l2_sq: np.ndarray = field(default_factory=lambda: np.zeros(0))
    tension_l2: np.ndarray = field(default_factory=lambda: np.zeros(0))
    snapshots: list = field(default_factory=list)
    halvings: int = 0

    @property
    def snapshot_times(self):
        return np.array([s.t for s in self.snapshots])

    def snapshot_at(self, t, tol=1e-9):
        for s in self.snapshots:
            if abs(s.t - t) <= tol:
                return s
        raise UsageError(f"no snapshot stored at t={t!r}")

    def detected_t0(self):
        """First stored time with ||u_t||^2 < eps0 (the kinetic trigger).

        Index 0 uses the tension norm as the instantaneous rate, since the
        backward difference quotient is undefined at t = 0.
        """
        below = self.ut_l2_sq < self.eps0
        idx = np.flatnonzero(below)
        return float(self.times[idx[0]]) if idx.size else None


def step(state: FlowState, tau: float, m: TargetManifold,
         chi: np.ndarray) -> FlowState:
    """One linearly-implicit step followed by pointwise projection.

    Raises StepSizeError when the pre-projection iterate leaves the
    projection reach of the target.
    """
    if tau <= 0:
        raise UsageError("timestep must be positive")
    mesh = state.u.mesh
    u = state.u.values
    lu, AIB = _step_factor(mesh, tau)
    if state.cache is None:
        state.cache = _derived(state.u, m)
    G = state.cache["curvature"]
    rhs = mesh.lumped_mass[:, None] * (u + tau * G)
    b = rhs[mesh.interior_idx] - AIB @ chi
    v = np.empty_like(u)
    v[mesh.interior_idx] = lu.solve(b)
    v[mesh.boundary_idx] = chi
    dist = m.constraint_violation(v[mesh.interior_idx])
    if float(np.max(dist, initial=0.0)) >= 0.95 * m.reach:
        raise StepSizeError(
            "iterate left the projection reach; retry with a smaller timestep")
    v[mesh.interior_idx] = m.project(v[mesh.interior_idx])
    u_new = Field(mesh, v)
    ut = Field(mesh, (v - u) / tau)
    derived = _derived(u_new, m)
    return FlowState(state.t + tau, u_new, ut, derived["tension"], derived)


def initial_state(mesh: DiskMesh, m: TargetManifold, chi: np.ndarray) -> FlowState:
    """Discrete harmonic extension of the boundary data projected to the target."""
    vals = np.zeros((mesh.n_vertices, m.n))
    bvals = np.zeros_like(vals)
    bvals[mesh.boundary_idx] = chi
    vals, _ = solve_dirichlet_lifted(mesh, np.zeros_like(vals), bvals)
    vals[mesh.interior_idx] = m.project(vals[mesh.interior_idx])
    u = Field(mesh, vals)
    zero = Field(mesh, np.zeros_like(vals))
    derived = _derived(u, m)
    return FlowState(0.0, u, zero, derived["tension"], derived)


def run_flow(mesh: DiskMesh, m: TargetManifold, chi: np.ndarray, t_end: float,
             tau: float, eps0: float, snapshot_times=None,
             max_halvings: int = 20) -> FlowTrajectory:
    """Run the flow to t_end, recording monitors each step and snapshots at
    the requested times. The timestep is halved (permanently) whenever a step
    violates the projection reach or increases the energy beyond tolerance.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.shape != (len(mesh.boundary_idx), m.n):
        raise UsageError("boundary data shape does not match boundary vertices")
    if np.max(m.constraint_violation(chi)) > 1e-10:
        raise UsageError("boundary data must take values on the target")
    state = initial_state(mesh, m, chi)
    E0 = state.cache["energy_raw"]
    tol_increase = 1e-10 * max(E0, 1e-12)

    M = mesh.mass

    def l2(vals):
        return math.sqrt(max(float((vals * (M @ vals)).sum()), 0.0))

    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, t_end, 33)
    # snapshots snap onto the step grid so the timestep stays strictly uniform
    # (mixed step sizes hop between nearby discrete fixed points and pollute
    # the kinetic-norm monitor at roundoff scale)
    pending = sorted(set(float(t) for t in snapshot_times if 0.0 <= t <= t_end))

    traj = FlowTrajectory(mesh, m, chi, eps0)
    times = [0.0]
    energy = [E0]
    t0_tension = l2(state.tension.values)
    ut_sq = [t0_tension ** 2]
    tension_l2 = [t0_tension]
    snapshots = []
    if pending and pending[0] <= tau / 2.0:
        snapshots.append(state)
        pending.pop(0)

    halvings = 0
    E_prev = E0
    t = 0.0
    while t < t_end - tau / 2.0:
        try:
            new = step(state, tau, m, chi)
        except StepSizeError:
            halvings += 1
            if halvings > max_halvings:
                raise
            tau = tau / 2.0
            continue
        E_new = new.cache["energy_raw"]
        if E_new > E_prev + tol_increase:
            halvings += 1
            if halvings > max_halvings:
                raise StepSizeError("energy kept increasing after maximal halving")
            tau = tau / 2.0
            continue
        state = new
        t = state.t
        E_prev = E_new
        times.append(t)
        energy.append(E_new)
        ut_sq.append(l2(state.ut.values) ** 2)
        tension_l2.append(l2(state.tension.values))
        while pending and t >= pending[0] - tau / 2.0:
            if not snapshots or snapshots[-1] is not state:
                snapshots.append(state)
            pending.pop(0)

    traj.times = np.asarray(times)
    traj.energy = np.asarray(energy)
    traj.ut_l2_sq = np.asarray(ut_sq)
    traj.tension_l2 = np.asarray(tension_l2)
    traj.snapshots = snapshots
    traj.halvings = halvings
    return traj


# -- monitors and certificates ---------------------------------------------------


def _monitor_index(traj: FlowTrajectory, t: float) -> int:
    idx = int(np.argmin(np.abs(traj.times - t)))
    if abs(traj.times[idx] - t) > 1e-9:
        raise UsageError(f"time {t!r} is not a stored step")
    return idx


def decay_identity_residual(traj: FlowTrajectory, t1: float, t2: float) -> float:
    """| 2 int_{t1}^{t2} ||u_t||^2 dt - (E_raw(t1) - E_raw(t2)) | with the time
    integral taken by the trapezoid rule over stored steps."""
    if t2 < t1:
        raise UsageError("need t2 >= t1")
    i1, i2 = _monitor_index(traj, t1), _monitor_index(traj, t2)
    if i1 == i2:
        return 0.0
    seg_t = traj.times[i1:i2 + 1]
    seg_u = traj.ut_l2_sq[i1:i2 + 1]
    integral = float(np.trapezoid(seg_u, seg_t))
    return abs(2.0 * integral - (traj.energy[i1] - traj.energy[i2]))


@dataclass
class ConvexityReport:
    pairs: list          # dicts: t1, t2, difference, denominator, ratio, status
    threshold: float
    slack: float

    @property
    def failures(self):
        return [p for p in self.pairs if p["status"] == "fail"]

    @property
    def min_ratio(self):
        ratios = [p["ratio"] for p in self.pairs if p["status"] != "degenerate"]
        return min(ratios) if ratios else None


def convexity_report(traj: FlowTrajectory, pairs, slack: float = 0.05,
                     coefficient: float = 0.25,
                     enforce_t0: bool = True) -> ConvexityReport:
    """Per-pair energy-convexity ratios (E(t1)-E(t2)) / int|grad u(t1)-grad u(t2)|^2.

    Pairs are (t1, t2) snapshot times with t2 > t1 >= detected T0 (a usage
    error otherwise, unless enforce_t0=False for exploratory probes).
    """
    t0 = traj.detected_t0()
    snaps, index = [], {}  # the pairs' distinct snapshots, in first-use order

    def row(t):
        s = traj.snapshot_at(t)
        if id(s) not in index:
            index[id(s)] = len(snaps)
            snaps.append(s)
        return index[id(s)]

    checked = []
    for (t1, t2) in pairs:
        if t2 <= t1:
            raise UsageError("convexity pairs need t2 > t1")
        if enforce_t0 and (t0 is None or t1 < t0 - 1e-12):
            raise UsageError("convexity pairs must satisfy t1 >= detected T0")
        checked.append((t1, t2, row(t1), row(t2)))
    grads = _snapshot_gradients(traj, snaps)
    areas = traj.mesh.tri_areas
    rows = []
    threshold = coefficient - slack
    for (t1, t2, i, j) in checked:
        diff = _energy_difference(areas, grads[i], grads[j])
        denom = _gradient_gap(areas, grads[i], grads[j])
        if denom <= 1e-14:
            rows.append({"t1": t1, "t2": t2, "difference": diff,
                         "denominator": denom, "ratio": None,
                         "status": "degenerate"})
            continue
        ratio = diff / denom
        rows.append({"t1": t1, "t2": t2, "difference": diff,
                     "denominator": denom, "ratio": ratio,
                     "status": "pass" if ratio >= threshold else "fail"})
    return ConvexityReport(rows, threshold, slack)


def ut_monotonicity_check(traj: FlowTrajectory, rel_tol: float = 1e-10) -> dict:
    """Detect T0 (first ||u_t|| < sqrt(eps0)) and count monotonicity violations
    of the kinetic norm after it."""
    if len(traj.times) < 3:
        raise UsageError("trajectory needs at least three stored steps")
    t0 = traj.detected_t0()
    if t0 is None:
        return {"T0": None, "violations": None, "tol": None,
                "note": "kinetic norm never fell below sqrt(eps0)"}
    k0 = int(np.flatnonzero(traj.ut_l2_sq < traj.eps0)[0])
    # the t=0 entry mixes conventions (tension-based); start comparisons at 1
    k0 = max(k0, 1)
    tol = rel_tol * max(traj.ut_l2_sq[k0], 1e-300)
    seq = traj.ut_l2_sq[k0:]
    violations = int(np.sum(seq[1:] > seq[:-1] + tol))
    return {"T0": t0, "violations": violations, "tol": tol}


def mean_value_check(traj: FlowTrajectory, pairs) -> dict:
    """Check ||u_t(t2)||^2 <= (t2-t1)^{-1} int_{t1}^{t2} ||u_t||^2 on pairs."""
    worst = -np.inf
    violations = 0
    for (t1, t2) in pairs:
        i1, i2 = _monitor_index(traj, t1), _monitor_index(traj, t2)
        if i2 <= i1:
            raise UsageError("mean-value pairs need t2 > t1")
        seg_t = traj.times[i1:i2 + 1]
        seg_u = traj.ut_l2_sq[i1:i2 + 1]
        mean = float(np.trapezoid(seg_u, seg_t)) / (seg_t[-1] - seg_t[0])
        gap = traj.ut_l2_sq[i2] - mean
        worst = max(worst, gap)
        if gap > 1e-12 + 1e-6 * mean:
            violations += 1
    return {"violations": violations, "worst_gap": worst}


def cross_term_check(traj: FlowTrajectory, t1: float, t2: float,
                     eps0: float) -> dict:
    """Measure C in int |u(t1)-u(t2)|^2 |grad u(t2)|^2 <= C eps0 int |grad(u1-u2)|^2."""
    if t2 <= t1:
        raise UsageError("need t2 > t1")
    s1, s2 = traj.snapshot_at(t1), traj.snapshot_at(t2)
    mesh = traj.mesh
    diff = s1.u.values - s2.u.values
    diff_c = mesh.at_centroids(diff)
    g2 = _flat_gradient(s2.u)
    dens2 = (g2 ** 2).sum(axis=1)
    lhs = float((mesh.tri_areas * (diff_c ** 2).sum(axis=1) * dens2).sum())
    rhs = _gradient_gap(mesh.tri_areas, _flat_gradient(s1.u), g2)
    if rhs <= 1e-14:
        return {"lhs": lhs, "rhs": rhs, "C": None, "degenerate": True}
    return {"lhs": lhs, "rhs": rhs, "C": lhs / (eps0 * rhs), "degenerate": False}


def cauchy_certificate(traj: FlowTrajectory, slack_factor: float = 0.05) -> dict:
    """Uniform-Cauchy certificate: sup over stored pairs t2 > t1 >= T0 of
    int|grad u(t1) - grad u(t2)|^2 - 4 (E_raw(t1) - E_raw(t2)); passes when
    the sup does not exceed slack_factor times the largest denominator.
    Without a pair to evaluate, "passes" is None and "reason" says why."""
    t0 = traj.detected_t0()
    snaps = [s for s in traj.snapshots if t0 is not None and s.t >= t0 - 1e-12]
    grads = _snapshot_gradients(traj, snaps)
    areas = traj.mesh.tri_areas
    value = -np.inf
    max_denom = 0.0
    count = 0
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            denom = _gradient_gap(areas, grads[i], grads[j])
            diff = _energy_difference(areas, grads[i], grads[j])
            value = max(value, denom - 4.0 * diff)
            max_denom = max(max_denom, denom)
            count += 1
    if count == 0:
        return {"value": 0.0, "threshold": 0.0, "passes": None, "pairs": 0,
                "max_denominator": 0.0,
                "reason": "T0 undetected" if t0 is None else NO_PAIRS}
    threshold = slack_factor * max_denom
    return {"value": float(value), "threshold": float(threshold),
            "passes": bool(value <= threshold), "pairs": count,
            "max_denominator": float(max_denom)}
