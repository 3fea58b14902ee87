"""The benchmark's workloads: set-up, one round of identical operations, and
the checks of each round's outputs.

A workload reaches heatflow only through public names. Its checks never
call into heatflow: they read returned values and written files and compare
them with `oracles` or with properties the method must have.
"""

from __future__ import annotations

import json
import math
import shutil
import traceback
from pathlib import Path

import numpy as np

from heatflow import elliptic, flow, gauge, hardy, lab, manifold
from heatflow import mesh as mesh_mod

import oracles

ROOT = Path(__file__).resolve().parents[1]
SUITE = ROOT / "suite"

SNAPSHOTS = 64
# an energy sequence "never increases" when no step raises it by more than
# this share of E0: about 450 ulps, far above the 1-2 ulp jitter of a sum over
# ~10^4 triangles and far below heatflow's own 1e-10 acceptance tolerance
ENERGY_ROUNDING = 1e-13
ORACLE_ENERGY_RTOL = 1e-9
ON_TARGET_TOL = 1e-10
HARDY_RTOL = 1e-12
# on certify_ref4's [1, t_end] the flow has settled and the energy drops by
# about one ulp of E0, so the decay residual there is rounding (1.4e-17 with
# E0 = 0.0895); taken from the first step instead it would be 2.2e-8
DECAY_ROUNDING = 1e-12


class OpFailed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, name, exc):
        self.name = name
        self.exc = exc

    def __repr__(self):
        return f"{self.name} raised {type(self.exc).__name__}: {self.exc}"


def _run_ops(ops):
    """Run (name, callable) pairs; a raising operation is recorded, not fatal."""
    out = {}
    for name, fn in ops:
        try:
            out[name] = fn()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc()
            out[name] = OpFailed(name, exc)
    return out


def _suite_raw(name):
    return json.loads((SUITE / f"{name}.json").read_text())


def _non_increasing(values, scale):
    """Largest rise between consecutive values, as a share of `scale`."""
    rise = float(np.max(np.diff(values), initial=0.0))
    return rise <= ENERGY_ROUNDING * scale, rise / scale


def _mesh_arrays(mesh):
    """Raw geometry for the oracles, copied out of the heatflow mesh."""
    return np.array(mesh.vertices), np.array(mesh.triangles)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.out_dir = out_dir

    def setup(self):
        raise NotImplementedError

    def round(self) -> dict:
        raise NotImplementedError

    def check(self, results: dict) -> list:
        """Problems found in one round's outputs (empty when all hold)."""
        raise NotImplementedError

    def work(self) -> dict:
        """Work counts of the last round, read from returned values."""
        return {}

    def cleanup(self):
        pass


# -- scenario_ref3 -----------------------------------------------------------------


class ScenarioRef3(Workload):
    """`lab.run_scenario` with `out_dir` on s1, s4 and s6 at refinement 3."""

    name = "scenario_ref3"
    scenarios = ("s1_sphere_cap", "s4_torus_cap", "s6_clifford_cap")

    def setup(self):
        self.configs = []
        for name, cfg_seed in zip(self.scenarios, self.rng.integers(0, 2 ** 31, 3)):
            raw = _suite_raw(name)
            raw["refinement"] = 3
            raw["seed"] = int(cfg_seed)
            self.configs.append(lab.validate_config(raw, name=name))
        self.verts, self.tris = _mesh_arrays(mesh_mod.build_disk_mesh(3))
        self.areas = oracles.triangle_areas(self.verts, self.tris)
        self.run_dir = self.out_dir / f"scenario-seed{self.seed}"
        self.previous_reports = {}
        self.last = {}

    def round(self):
        return _run_ops([(cfg.name, lambda cfg=cfg: lab.run_scenario(
            cfg, out_dir=self.run_dir / cfg.name)) for cfg in self.configs])

    def check(self, results):
        problems = []
        for cfg in self.configs:
            rep = results[cfg.name]
            if isinstance(rep, OpFailed):
                continue
            problems += [f"{cfg.name}: {p}" for p in self._check_one(cfg, rep)]
        return problems

    def _check_one(self, cfg, rep):
        problems = []
        if not rep["scenario"].get("feasible"):
            return [f"infeasible: {rep['scenario'].get('reason')}"]
        bad = {k: v["verdict"] for k, v in rep["checks"].items() if v["verdict"] != "pass"}
        if bad or len(rep["checks"]) != 7:
            problems.append(f"checks not all passing: {bad or sorted(rep['checks'])}")
        if rep["trajectory"]["halvings"] != 0:
            problems.append(f"{rep['trajectory']['halvings']} step halvings")
        if rep["scenario"]["T0"] != 0.0:
            problems.append(f"kinetic trigger T0 = {rep['scenario']['T0']}, not 0")
        out = self.run_dir / cfg.name
        text = (out / "report.json").read_bytes()
        if text != (json.dumps(rep, indent=2, sort_keys=True) + "\n").encode():
            problems.append("report.json is not the report run_scenario returned")
        prev = self.previous_reports.get(cfg.name)
        if prev is not None and prev != text:
            problems.append("report.json differs from the previous round")
        self.previous_reports[cfg.name] = text

        csv = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        ok, rise = _non_increasing(csv[:, 1], csv[0, 1])
        if not ok:
            problems.append(f"trajectory energy rises by {rise:.3g} E0")

        lines = (out / "snapshot_final.u.txt").read_text().split("\n")
        u = np.array([[float(x) for x in ln.split()] for ln in lines[1:] if ln])
        defect = float(oracles.constraint_defect(cfg.target, u).max())
        if defect > ON_TARGET_TOL:
            problems.append(f"final snapshot off target by {defect:.3g}")
        e_oracle = oracles.dirichlet_energy(
            self.areas, oracles.p1_gradient(self.verts, self.tris, u))
        e_final = rep["scenario"]["energy_final"]
        if abs(e_oracle - e_final) > ORACLE_ENERGY_RTOL * abs(e_final):
            problems.append(f"oracle energy {e_oracle!r} != energy_final {e_final!r}")
        self.last[cfg.name] = rep
        return problems

    def work(self):
        out = {}
        for name, rep in self.last.items():
            g = rep.get("gauge", {}).get("iterations", {})
            out[name] = {"steps": rep["trajectory"]["steps"],
                         "halvings": rep["trajectory"]["halvings"],
                         "descent_iterations": g.get("descent"),
                         "fixed_point_iterations": g.get("fixed_point"),
                         "convexity_pairs": rep["checks"]["convexity"].get("pairs"),
                         "cauchy_pairs": rep["checks"]["cauchy"].get("pairs")}
        return out

    def cleanup(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)


# -- shared ref-4 sphere set-up ----------------------------------------------------------


class _SphereRef4(Workload):
    """The s1 sphere cap at refinement 4 with a given cap radius."""

    def _build(self, delta):
        self.mesh = mesh_mod.build_disk_mesh(4)
        raw = _suite_raw("s1_sphere_cap")
        raw["boundary"]["delta"] = float(delta)
        self.cfg = lab.validate_config(raw, name=self.name)
        self.m = manifold.from_config(self.cfg.target)
        self.chi, scale, reason = lab.build_boundary_data(self.cfg, self.mesh, self.m)
        if self.chi is None or scale != 1.0:
            raise RuntimeError(f"boundary data needs the full cap (scale {scale}, {reason})")
        self.tau = self.cfg.tau(self.mesh.h)
        self.verts, self.tris = _mesh_arrays(self.mesh)
        self.areas = oracles.triangle_areas(self.verts, self.tris)
        self.bidx = np.array(self.mesh.boundary_idx)
        self.h = float(self.mesh.h)

    def _flow(self, steps):
        t_end = steps * self.tau
        return flow.run_flow(self.mesh, self.m, self.chi, t_end, self.tau, self.cfg.eps0,
                             snapshot_times=np.linspace(0.0, t_end, SNAPSHOTS))


# -- flow_ref4 ------------------------------------------------------------------------


class FlowRef4(_SphereRef4):
    """`flow.run_flow` alone on the s1 sphere cap at refinement 4."""

    name = "flow_ref4"
    steps = 300

    def setup(self):
        self._build(delta=0.08 + 0.04 * self.rng.random())
        # one step factorises the step matrix for this tau, as in every round
        flow.run_flow(self.mesh, self.m, self.chi, self.tau, self.tau, self.cfg.eps0)
        self.last = {}

    def round(self):
        return _run_ops([("run_flow", lambda: self._flow(self.steps))])

    def check(self, results):
        traj = results["run_flow"]
        if isinstance(traj, OpFailed):
            return []
        self.last = {"steps": len(traj.times) - 1, "halvings": traj.halvings,
                     "snapshots": len(traj.snapshots)}
        problems = []
        nsteps = len(traj.times) - 1
        if nsteps != self.steps or traj.halvings != 0:
            problems.append(f"{nsteps} steps with {traj.halvings} halvings, "
                            f"expected {self.steps} with none")
        if not np.allclose(np.diff(traj.times), self.tau, rtol=1e-9, atol=0.0):
            problems.append("time steps are not uniform")
        if len(traj.snapshots) != SNAPSHOTS:
            problems.append(f"{len(traj.snapshots)} snapshots, expected {SNAPSHOTS}")
        E0 = float(traj.energy[0])
        ok, rise = _non_increasing(traj.energy, E0)
        if not ok:
            problems.append(f"monitor energy rises by {rise:.3g} E0")
        index = {float(t): k for k, t in enumerate(traj.times)}
        oracle_e = []
        for s in traj.snapshots:
            u = s.u.values
            if not np.array_equal(u[self.bidx], self.chi):
                problems.append(f"boundary rows differ from the data at t={s.t}")
            defect = float(oracles.constraint_defect({"kind": "sphere"}, u).max())
            if defect > ON_TARGET_TOL:
                problems.append(f"snapshot t={s.t} off the sphere by {defect:.3g}")
            e = oracles.dirichlet_energy(self.areas,
                                         oracles.p1_gradient(self.verts, self.tris, u))
            monitor = float(traj.energy[index[float(s.t)]])
            if abs(e - monitor) > ORACLE_ENERGY_RTOL * monitor:
                problems.append(f"oracle energy {e!r} != monitor {monitor!r} at t={s.t}")
            oracle_e.append(e)
        ok, rise = _non_increasing(np.array(oracle_e), E0)
        if not ok:
            problems.append(f"oracle snapshot energy rises by {rise:.3g} E0")
        # decay identity from the first step (t = 0 carries the tension norm)
        t, ut = traj.times[1:], traj.ut_l2_sq[1:]
        integral = float(np.sum(0.5 * (ut[1:] + ut[:-1]) * np.diff(t)))
        drop = float(traj.energy[1] - traj.energy[-1])
        budget = 20.0 * (self.tau + self.h) * E0
        if abs(2.0 * integral - drop) > budget:
            problems.append(f"decay identity off by {abs(2 * integral - drop):.3g} > {budget:.3g}")
        return problems

    def work(self):
        return self.last


# -- certify_ref4 -------------------------------------------------------------------------


class CertifyRef4(_SphereRef4):
    """Every check of `run_scenario` on one fixed ref-4 trajectory."""

    name = "certify_ref4"
    steps = 300
    convexity_pairs = 50
    mean_value_pairs = 20
    cross_term_pairs = 25

    def setup(self):
        self._build(delta=_suite_raw("s1_sphere_cap")["boundary"]["delta"])
        self.traj = self._flow(self.steps)
        self.t0 = self.traj.detected_t0()
        self.eps0 = self.cfg.eps0
        self.snap = self.traj.snapshots[-1]
        # factorisations the rounds reuse: interior and Neumann LU, and the
        # Sobolev preconditioner of the gauge descent
        zero = np.zeros(self.mesh.n_vertices)
        elliptic.solve_interior(self.mesh, zero, method="direct")
        elliptic.solve_neumann_meanzero(self.mesh, zero)
        gauge.minimize_gauge(manifold.assemble_omega(self.m, self.snap.u), max_iterations=1)
        # the seed picks which snapshot pairs are sampled, never how many
        times = [float(s.t) for s in self.traj.snapshots]
        all_pairs = [(times[i], times[j]) for i in range(len(times))
                     for j in range(i + 1, len(times))]

        def sample(count):
            pick = np.sort(self.rng.choice(len(all_pairs), size=count, replace=False))
            return [all_pairs[k] for k in pick]

        self.pairs = {"convexity": sample(self.convexity_pairs),
                      "mean_value": sample(self.mean_value_pairs),
                      "cross_term": sample(self.cross_term_pairs)}
        x, y = self.verts[:, 0], self.verts[:, 1]
        self.load = oracles.lumped_load(self.verts, self.tris, oracles.poisson_source(x, y))
        self.exact = oracles.poisson_exact(x, y)
        self._oracle_cauchy = None
        self.last = {}

    def round(self):
        return _run_ops([
            ("convexity", self._convexity),
            ("ut_monotone", self._ut_monotone),
            ("decay_identity", self._decay_identity),
            ("cross_term", self._cross_term),
            ("cauchy", lambda: flow.cauchy_certificate(self.traj)),
            ("gauge", self._gauge),
            ("hardy", lambda: hardy.h1_energy_check(self.traj, self.eps0)),
            ("cg_solve", lambda: elliptic.solve_interior(self.mesh, self.load, method="cg")),
        ])

    # operations ------------------------------------------------------------------

    def _convexity(self):
        return flow.convexity_report(self.traj, self.pairs["convexity"],
                                     slack=lab.CONVEXITY_SLACK)

    def _ut_monotone(self):
        return (flow.ut_monotonicity_check(self.traj),
                flow.mean_value_check(self.traj, self.pairs["mean_value"]))

    def _decay_identity(self):
        times = self.traj.times
        t1 = float(times[np.argmin(np.abs(times - max(1.0, times[1])))])
        t2 = float(times[-1])
        return t1, t2, flow.decay_identity_residual(self.traj, t1, t2)

    def _cross_term(self):
        return [flow.cross_term_check(self.traj, t1, t2, self.eps0)
                for t1, t2 in self.pairs["cross_term"]]

    def _gauge(self):
        """The gauge check of `run_scenario`, stage by stage."""
        snap, m = self.snap, self.m
        omega = manifold.assemble_omega(m, snap.u)
        frame = gauge.minimize_gauge(omega)
        frame = gauge.recover_xi(frame, omega)
        cons = gauge.construct_AB(frame, omega)
        hodge = elliptic.hodge_decompose(gauge.flux_field(cons, snap.u))
        structure = gauge.p_structure(cons, frame, snap.u, m, hodge)
        cons_res = gauge.conservation_residual(cons, snap.u, snap.ut)
        bsup = gauge.b_sup_estimate(cons, snap.u, m)
        ut_norm = math.sqrt(max(float(self.traj.ut_l2_sq[-1]), 0.0))
        posc = gauge.p_oscillation(frame, structure, ut_norm, gauge.default_probes(), self.eps0)
        pw = hardy.pointwise_lower_bound_check(snap.u, frame, hodge)
        return {"omega_l2": omega.l2_norm(), "frame": frame, "cons": cons,
                "structure_residual": structure.residual_dual,
                "conservation_residual": cons_res, "b_sup": bsup, "p_osc": posc,
                "pointwise": pw}

    # checks ------------------------------------------------------------------------

    def check(self, results):
        problems = []
        if self.t0 != 0.0:
            problems.append("the trajectory's kinetic trigger is not at t = 0")
        for name, res in results.items():
            if not isinstance(res, OpFailed):
                problems += [f"{name}: {p}" for p in getattr(self, f"_check_{name}")(res)]
        self.last = self._work(results)
        return problems

    def _check_convexity(self, rep):
        problems = []
        threshold = 0.25 - lab.CONVEXITY_SLACK
        if len(rep.pairs) != self.convexity_pairs:
            problems.append(f"{len(rep.pairs)} pairs evaluated")
        if rep.failures or rep.min_ratio is None or rep.min_ratio < threshold:
            problems.append(f"min ratio {rep.min_ratio} below {threshold}")
        return problems

    def _check_ut_monotone(self, res):
        mono, mv = res
        if mono["T0"] != 0.0 or mono["violations"] != 0 or mv["violations"] != 0:
            return [f"T0 {mono['T0']}, {mono['violations']} monotonicity and "
                    f"{mv['violations']} mean-value violations"]
        return []

    def _check_decay_identity(self, res):
        t1, t2, resid = res
        budget = 20.0 * (float(np.max(np.diff(self.traj.times))) + self.h) \
            * max(float(self.traj.energy[0]), 1e-12)
        # the suite's budget, and the rounding level the settled flow must meet
        floor = DECAY_ROUNDING * float(self.traj.energy[0])
        if not (t1 >= 1.0 and t2 > t1 and resid <= budget and resid <= floor):
            return [f"residual {resid:.3g} over [{t1}, {t2}] exceeds "
                    f"{min(budget, floor):.3g}"]
        return []

    def _check_cross_term(self, rows):
        cs = [r["C"] for r in rows if not r["degenerate"]]
        if len(rows) != self.cross_term_pairs or not all(
                math.isfinite(c) and c <= lab.CROSS_TERM_CAP for c in cs):
            return [f"cross-term constants {max(cs, default=None)} over the cap"]
        return []

    def _check_cauchy(self, res):
        problems = []
        if not res["passes"] or res["pairs"] != 2016:
            problems.append(f"certificate fails or covers {res['pairs']} pairs")
        if self._oracle_cauchy is None:
            snaps = self.traj.snapshots
            self._oracle_cauchy = oracles.cauchy_supremum(
                self.areas, lambda k: oracles.p1_gradient(self.verts, self.tris, snaps[k].u.values),
                len(snaps))
        value, max_gap, pairs = self._oracle_cauchy
        # a P1 gradient of an O(1) map carries ~eps/h of rounding, so gap - 4
        # diff (both ~max_gap, cancelling) agree to ~1e-11 max_gap, and the
        # gaps themselves to ~1e-15
        if pairs != res["pairs"] or abs(value - res["value"]) > 1e-10 * max_gap \
                or abs(max_gap - res["max_denominator"]) > 1e-12 * max_gap:
            problems.append(f"oracle supremum {value!r} (gap {max_gap!r}) vs "
                            f"{res['value']!r} (gap {res['max_denominator']!r})")
        return problems

    def _check_gauge(self, res):
        problems = []
        P = res["frame"].P.values
        n = P.shape[-1]
        orth = float(np.abs(np.einsum("vki,vkj->vij", P, P) - np.eye(n)).max())
        det = float(np.abs(np.linalg.det(P) - 1.0).max())
        if orth > 1e-10 or det > 1e-10:
            problems.append(f"P not a rotation: |P^T P - I| {orth:.3g}, |det P - 1| {det:.3g}")
        r_gauge, bound = res["frame"].r_gauge, 10.0 * self.h * res["omega_l2"]
        if not r_gauge <= bound:
            problems.append(f"r_gauge {r_gauge:.3g} > 10 h |Omega| = {bound:.3g}")
        if not (res["frame"].converged and res["cons"].converged):
            problems.append("descent or fixed point did not converge")
        pw = res["pointwise"]["min_ratio"]
        if pw is not None and pw < lab.POINTWISE_FLOOR:
            problems.append(f"pointwise lower bound ratio {pw:.3g}")
        return problems

    def _check_hardy(self, res):
        if res["skipped"] or not res["rows"]:
            return [f"Hardy check skipped: {res['skipped']}"]
        problems = []
        by_t = {float(s.t): s for s in self.traj.snapshots}
        total_area = float(self.areas.sum())
        for row in res["rows"]:
            g = oracles.p1_gradient(self.verts, self.tris, by_t[row["t"]].u.values)
            dens = oracles.energy_density(g)
            l1 = float((self.areas * dens).sum())
            upper = total_area * float(dens.max())
            if not (l1 * (1 - HARDY_RTOL) <= row["h1_density"] <= upper * (1 + HARDY_RTOL)):
                problems.append(f"t={row['t']}: h1 {row['h1_density']!r} outside "
                                f"[{l1!r}, {upper!r}]")
        return problems

    def _check_cg_solve(self, res):
        x, _ = res
        err = float(np.abs(x - self.exact).max())
        if err > self.h ** 2:
            return [f"CG Poisson error {err:.3g} exceeds h^2 = {self.h ** 2:.3g}"]
        return []

    @staticmethod
    def _work(results):
        out = {}
        if not isinstance(results["cauchy"], OpFailed):
            out["cauchy_pairs"] = results["cauchy"]["pairs"]
        if not isinstance(results["convexity"], OpFailed):
            out["convexity_pairs"] = len(results["convexity"].pairs)
        if not isinstance(results["cross_term"], OpFailed):
            out["cross_term_pairs"] = len(results["cross_term"])
        if not isinstance(results["gauge"], OpFailed):
            out["descent_iterations"] = results["gauge"]["frame"].iterations
            out["fixed_point_iterations"] = results["gauge"]["cons"].iterations
        if not isinstance(results["hardy"], OpFailed):
            out["hardy_rows"] = len(results["hardy"]["rows"])
        return out

    def work(self):
        return self.last


# -- hardy_ref5 ------------------------------------------------------------------------------


class HardyRef5(Workload):
    """`HardyEstimator(mesh).h1_norm` at refinement 5 on a seeded density.

    Even seeds give a constant density c, odd seeds a sum of three Gaussian
    bumps; c and the bumps are drawn from the seed. The maximal function
    does the same work on either.
    """

    name = "hardy_ref5"
    oracle_vertices = 12

    def setup(self):
        self.mesh = mesh_mod.build_disk_mesh(5)
        self.est = hardy.HardyEstimator(self.mesh)
        self.verts, self.tris = _mesh_arrays(self.mesh)
        self.areas = oracles.triangle_areas(self.verts, self.tris)
        c = self.verts[self.tris].mean(axis=1)
        rng = self.rng
        if self.seed % 2 == 0:
            self.kind, self.constant = "constant", float(rng.uniform(0.5, 2.0))
            self.density = np.full(len(c), self.constant)
        else:
            self.kind = "bumps"
            self.density = np.full(len(c), 0.05)
            for _ in range(3):
                r, phi = 0.7 * math.sqrt(rng.random()), 2 * math.pi * rng.random()
                width, height = rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0)
                d2 = (c[:, 0] - r * math.cos(phi)) ** 2 + (c[:, 1] - r * math.sin(phi)) ** 2
                self.density += height * np.exp(-d2 / (2.0 * width ** 2))
            self.vertex_ids = np.sort(rng.choice(len(self.verts), self.oracle_vertices,
                                                 replace=False))
            self._oracle_fstar = None
        # keep f* of each call: h1_norm looks `maximal` up on the instance
        self._fstar = None
        self.maximal_calls = 0
        maximal = self.est.maximal

        def keep(f_cells):
            out = maximal(f_cells)
            self._fstar = out.values
            self.maximal_calls += 1
            return out

        self.est.maximal = keep

    def round(self):
        self._fstar = None
        self.maximal_calls = 0
        return _run_ops([("h1_norm", lambda: self.est.h1_norm(self.density))])

    def check(self, results):
        h1 = results["h1_norm"]
        if isinstance(h1, OpFailed):
            return []
        if self.maximal_calls != 1 or self._fstar is None:
            return [f"h1_norm made {self.maximal_calls} maximal-function calls, not 1"]
        problems = []
        f, fstar = self.density, self._fstar
        l1 = float((self.areas * np.abs(f)).sum())
        upper = float(self.areas.sum()) * float(np.abs(f).max())
        if not (l1 * (1 - HARDY_RTOL) <= h1 <= upper * (1 + HARDY_RTOL)):
            problems.append(f"h1 {h1!r} outside [{l1!r}, {upper!r}]")
        if self.kind == "constant":
            err = float(np.abs(fstar - self.constant).max())
            if err > HARDY_RTOL * self.constant:
                problems.append(f"constant density: f* off by {err:.3g}")
        else:
            if self._oracle_fstar is None:
                self._oracle_fstar = oracles.brute_maximal(
                    self.verts, self.tris, f, self.vertex_ids)
            got = fstar[self.vertex_ids]
            rel = float(np.max(np.abs(got - self._oracle_fstar) / self._oracle_fstar))
            if rel > HARDY_RTOL:
                problems.append(f"f* differs from the brute-force oracle by {rel:.3g} relative")
        return problems

    def work(self):
        """`maximal` calls of the last round and the length of the f* they returned."""
        return {"maximal_calls": self.maximal_calls,
                "fstar_vertices": None if self._fstar is None else len(self._fstar)}


WORKLOADS = {w.name: w for w in (ScenarioRef3, FlowRef4, CertifyRef4, HardyRef5)}
