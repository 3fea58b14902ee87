"""Scenario configuration, orchestration, persistence, and suite verification.

A scenario builds a mesh and target, constructs small-energy boundary data
from a named closed-form family, runs the flow, executes the requested
verification checks, and writes a deterministic JSON report plus a CSV of
per-step monitors. Wall-clock time never enters the report (fixed seed and
config must reproduce it byte for byte); deterministic counters do.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field, asdict
from pathlib import Path

import numpy as np

from . import flow as flow_mod
from . import gauge as gauge_mod
from . import hardy as hardy_mod
from . import manifold as manifold_mod
from .elliptic import hodge_decompose
from .errors import ConfigurationError, HeatflowError, MedialAxisError, UsageError
from .mesh import Field, build_disk_mesh

DEFAULT_CHECKS = ("convexity", "ut_monotone", "decay_identity", "cross_term",
                  "gauge", "hardy", "cauchy")
KNOWN_CHECKS = set(DEFAULT_CHECKS)

CONVEXITY_SLACK = 0.05
POINTWISE_FLOOR = 0.20
CROSS_TERM_CAP = 50.0
MAX_ENERGY_HALVINGS = 40
CAP_DELTA_LIMIT = 1.0
ARTIFACT_VERSION = "0.1.0"


@dataclass
class ScenarioConfig:
    name: str
    target: dict
    boundary: dict
    refinement: int
    t_end: float
    eps0: float = 0.1
    timestep: dict = dc_field(default_factory=lambda: {"factor": 4.0})
    checks: tuple = DEFAULT_CHECKS
    seed: int = 20260809
    snapshots: int = 64
    pair_samples: int = 50

    def tau(self, h: float) -> float:
        if "tau" in self.timestep:
            return float(self.timestep["tau"])
        return float(self.timestep.get("factor", 4.0)) * h * h


_TOP_KEYS = {"name", "target", "boundary", "refinement", "t_end", "eps0",
             "timestep", "checks", "seed", "snapshots", "pair_samples"}
_BOUNDARY_KEYS = {"cap": {"family", "delta"},
                  "fourier": {"family", "coeffs"}}
_TIMESTEP_KEYS = {"factor", "tau"}


def validate_config(raw: dict, name: str = "scenario") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config key {unknown[0]!r}")
    for key in ("target", "boundary", "refinement", "t_end"):
        if key not in raw:
            raise ConfigurationError(f"missing required config key {key!r}")

    manifold_mod.from_config(raw["target"])  # validates target keys

    boundary = raw["boundary"]
    if not isinstance(boundary, dict) or "family" not in boundary:
        raise ConfigurationError("boundary config needs a 'family' key")
    family = boundary["family"]
    if family not in _BOUNDARY_KEYS:
        raise ConfigurationError(f"unknown boundary family {family!r}")
    unknown = sorted(set(boundary) - _BOUNDARY_KEYS[family])
    if unknown:
        raise ConfigurationError(f"unknown boundary key {unknown[0]!r}")
    if family == "cap":
        if "delta" not in boundary:
            raise ConfigurationError("cap boundary family needs 'delta'")
        if not _is_finite_number(boundary["delta"]):
            raise ConfigurationError(
                f"boundary.delta must be a finite number, got {boundary['delta']!r}")
    if family == "fourier":
        coeffs = boundary.get("coeffs")
        if (not isinstance(coeffs, list) or not coeffs
                or not all(isinstance(row, list) and len(row) == 4
                           and all(_is_finite_number(c) for c in row)
                           for row in coeffs)):
            raise ConfigurationError(
                "boundary.coeffs of the fourier family must be a non-empty "
                "list of rows of 4 finite numbers [a_k1, b_k1, a_k2, b_k2], "
                f"got {coeffs!r}")

    timestep = raw.get("timestep", {"factor": 4.0})
    if not isinstance(timestep, dict):
        raise ConfigurationError("timestep must be an object")
    unknown = sorted(set(timestep) - _TIMESTEP_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown timestep key {unknown[0]!r}")
    for key, value in timestep.items():
        if not (_is_finite_number(value) and value > 0):
            raise ConfigurationError(
                f"timestep.{key} must be a positive finite number, got {value!r}")

    eps0 = raw.get("eps0", 0.1)
    if not (_is_finite_number(eps0) and eps0 > 0):
        raise ConfigurationError(
            f"eps0 must be a positive finite number, got {eps0!r}")
    t_end = raw["t_end"]
    if not (_is_finite_number(t_end) and t_end > 1):
        raise ConfigurationError(
            f"t_end must be a finite number exceeding 1, got {t_end!r}")
    refinement = raw["refinement"]
    if (isinstance(refinement, bool) or not isinstance(refinement, int)
            or refinement < 0 or refinement > 10):
        raise ConfigurationError(
            f"refinement must be an integer in [0, 10], got {refinement!r}")

    checks = raw.get("checks", DEFAULT_CHECKS)
    if (not isinstance(checks, (list, tuple))
            or not all(isinstance(c, str) for c in checks)):
        raise ConfigurationError(
            f"checks must be a list of check names, got {checks!r}")
    checks = tuple(checks)
    unknown = sorted(set(checks) - KNOWN_CHECKS)
    if unknown:
        raise ConfigurationError(f"unknown check {unknown[0]!r}")

    seed = _int_key(raw, "seed", 20260809, 0)
    env_seed = os.environ.get("HEATFLOW_SEED")
    if env_seed is not None:
        if not env_seed.strip().isdecimal():
            raise ConfigurationError(
                f"HEATFLOW_SEED must be a non-negative integer, got {env_seed!r}")
        seed = int(env_seed)

    return ScenarioConfig(
        name=raw.get("name", name),
        target=dict(raw["target"]),
        boundary=dict(boundary),
        refinement=refinement,
        t_end=float(t_end),
        eps0=float(eps0),
        timestep=dict(timestep),
        checks=checks,
        seed=seed,
        snapshots=_int_key(raw, "snapshots", 64, 2),
        pair_samples=_int_key(raw, "pair_samples", 50, 0),
    )


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _int_key(raw: dict, key: str, default: int, minimum: int) -> int:
    """The integer config value raw[key] (or default), at least minimum."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(
            f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: line {exc.lineno}: {exc.msg}")
    return validate_config(raw, name=path.stem)


# -- boundary data families ------------------------------------------------------


def _tangent_frame_at(m, p):
    """Deterministic orthonormal tangent pair at p from projected axes."""
    basis = []
    for i in range(m.n):
        e = np.zeros(m.n)
        e[i] = 1.0
        w = m.tangent_project(p, e)
        for b in basis:
            w = w - b * (b @ w)
        nrm = np.linalg.norm(w)
        if nrm > 1e-10:
            basis.append(w / nrm)
        if len(basis) == 2:
            break
    if len(basis) < 2:
        raise UsageError("could not build a tangent frame at the base point")
    return basis[0], basis[1]


def boundary_offsets(cfg_boundary: dict, theta: np.ndarray, e1, e2):
    """Offset vectors in the tangent plane for each boundary angle."""
    family = cfg_boundary["family"]
    if family == "cap":
        delta = float(cfg_boundary["delta"])
        return delta * (np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2)
    coeffs = cfg_boundary["coeffs"]
    off = np.zeros((len(theta), len(e1)))
    for k, (a1, b1, a2, b2) in enumerate(coeffs, start=1):
        off += (a1 * np.cos(k * theta) + b1 * np.sin(k * theta))[:, None] * e1
        off += (a2 * np.cos(k * theta) + b2 * np.sin(k * theta))[:, None] * e2
    return off


def build_boundary_data(cfg: ScenarioConfig, mesh, m):
    """Boundary values on N plus the scale that achieved E(u0) < eps0.

    Returns (chi, scale, None) or (None, None, reason) when the construction
    is infeasible for the requested family parameters.
    """
    family = cfg.boundary["family"]
    if family == "cap":
        delta = float(cfg.boundary["delta"])
        if not (0.0 < delta <= CAP_DELTA_LIMIT):
            return None, None, (f"cap radius delta={delta} outside the feasible "
                                f"range (0, {CAP_DELTA_LIMIT}]")
    base = m.base_point()
    e1, e2 = _tangent_frame_at(m, base)
    bidx = mesh.boundary_idx
    theta = np.arctan2(mesh.vertices[bidx, 1], mesh.vertices[bidx, 0])
    offsets = boundary_offsets(cfg.boundary, theta, e1, e2)
    scale = 1.0
    for _ in range(MAX_ENERGY_HALVINGS + 1):
        try:
            chi = m.project(base + scale * offsets)
        except MedialAxisError as exc:
            return None, None, f"boundary projection failed: {exc}"
        state = flow_mod.initial_state(mesh, m, chi)
        e0 = flow_mod.dirichlet_energy(state.u)["E_raw"]
        if e0 < cfg.eps0:
            return chi, scale, None
        scale *= 0.5
    return None, None, ("initial energy stayed above eps0 after "
                        f"{MAX_ENERGY_HALVINGS} amplitude halvings")


# -- per-check execution ----------------------------------------------------------


def _sample_pairs(rng, times, count):
    """Deterministic sample of index pairs (i < j) from the given times."""
    n = len(times)
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(all_pairs) <= count:
        chosen = all_pairs
    else:
        pick = rng.choice(len(all_pairs), size=count, replace=False)
        chosen = [all_pairs[k] for k in sorted(pick.tolist())]
    return [(float(times[i]), float(times[j])) for i, j in chosen]


def _check_convexity(traj, cfg, rng):
    t0 = traj.detected_t0()
    if t0 is None:
        return {"verdict": "skipped", "reason": "T0 undetected"}
    st = traj.snapshot_times
    post = st[st >= t0 - 1e-12]
    pairs = _sample_pairs(rng, post, cfg.pair_samples)
    if not pairs:
        return {"verdict": "skipped", "reason": flow_mod.NO_PAIRS}
    rep = flow_mod.convexity_report(traj, pairs, slack=CONVEXITY_SLACK)
    out = {
        "verdict": "pass" if not rep.failures else "fail",
        "pairs": len(rep.pairs),
        "degenerate": sum(1 for p in rep.pairs if p["status"] == "degenerate"),
        "min_ratio": rep.min_ratio,
        "threshold": rep.threshold,
    }
    pre = st[st < t0 - 1e-12]
    if len(pre) >= 2:
        pre_pairs = [(float(pre[i]), float(pre[i + 1])) for i in range(len(pre) - 1)]
        pre_rep = flow_mod.convexity_report(traj, pre_pairs, slack=CONVEXITY_SLACK,
                                            enforce_t0=False)
        out["exploratory_pre_t0_min_ratio"] = pre_rep.min_ratio
    return out


def _check_ut_monotone(traj, cfg, rng):
    if len(traj.times) < 3:
        return {"verdict": "skipped",
                "reason": "trajectory has fewer than three stored steps"}
    res = flow_mod.ut_monotonicity_check(traj)
    if res["T0"] is None:
        return {"verdict": "skipped", "reason": res["note"]}
    st = traj.snapshot_times
    post = st[st >= res["T0"] - 1e-12]
    pairs = _sample_pairs(rng, post, min(cfg.pair_samples, 20))
    mv = flow_mod.mean_value_check(traj, pairs) if pairs else \
        {"violations": 0, "worst_gap": 0.0}
    verdict = "pass" if res["violations"] == 0 and mv["violations"] == 0 else "fail"
    return {"verdict": verdict, "T0": res["T0"], "violations": res["violations"],
            "mean_value_violations": mv["violations"],
            "mean_value_worst_gap": mv["worst_gap"]}


def _check_decay_identity(traj, cfg, rng):
    times = traj.times
    if times[-1] <= 1.0:
        return {"verdict": "skipped", "reason": "trajectory ends before t=1"}
    t1 = float(times[np.argmin(np.abs(times - max(1.0, times[1])))])
    t2 = float(times[-1])
    resid = flow_mod.decay_identity_residual(traj, t1, t2)
    tau = float(np.max(np.diff(times)))
    budget = 20.0 * (tau + traj.mesh.h) * max(traj.energy[0], 1e-12)
    return {"verdict": "pass" if resid <= budget else "fail",
            "t1": t1, "t2": t2, "residual": resid, "budget": budget}


def _check_cross_term(traj, cfg, rng):
    t0 = traj.detected_t0()
    if t0 is None:
        return {"verdict": "skipped", "reason": "T0 undetected"}
    st = traj.snapshot_times
    post = st[st >= t0 - 1e-12]
    pairs = _sample_pairs(rng, post, min(cfg.pair_samples, 25))
    if not pairs:
        return {"verdict": "skipped", "reason": flow_mod.NO_PAIRS}
    cs = []
    degenerate = 0
    for (t1, t2) in pairs:
        r = flow_mod.cross_term_check(traj, t1, t2, cfg.eps0)
        if r["degenerate"]:
            degenerate += 1
        else:
            cs.append(r["C"])
    max_c = max(cs) if cs else 0.0
    ok = all(math.isfinite(c) for c in cs) and max_c <= CROSS_TERM_CAP
    return {"verdict": "pass" if ok else "fail", "pairs": len(pairs),
            "degenerate": degenerate, "max_C": max_c, "cap": CROSS_TERM_CAP}


def _check_cauchy(traj, cfg, rng):
    res = flow_mod.cauchy_certificate(traj)
    if res["passes"] is None:
        return {"verdict": "skipped", "reason": res["reason"]}
    return {"verdict": "pass" if res["passes"] else "fail", **res}


def gauge_diagnostics(u: Field, ut: Field, m, eps0: float, t: float) -> dict:
    """The gauge chain on the map u at time t: Omega, the gauge frame, the
    conservation pair (A, B), the Hodge split of the flux, the P-structure,
    and the P oscillation against sqrt(eps0) + ||u_t||_L2, with the verdict
    of their gates. A map with zero potential (a constant map) passes at
    once."""
    omega = manifold_mod.assemble_omega(m, u)
    if omega.l2_norm() < 1e-14:
        return {"verdict": "pass", "note": "zero potential (constant map)"}
    frame = gauge_mod.gauge_frame(omega)
    cons = gauge_mod.construct_AB(frame, omega)
    hodge = hodge_decompose(gauge_mod.flux_field(cons, u))
    structure = gauge_mod.p_structure(cons, frame, u, m, hodge)
    cons_res = gauge_mod.conservation_residual(cons, u, ut)
    bs = gauge_mod.b_sup_estimate(cons, u, m)
    posc = gauge_mod.p_oscillation(frame, structure,
                                   flow_mod.l2_norm(u.mesh, ut.values),
                                   gauge_mod.default_probes(), eps0)
    pw = hardy_mod.pointwise_lower_bound_check(u, frame, hodge)
    gate_gauge = frame.r_gauge <= 10.0 * u.mesh.h * omega.l2_norm()
    gate_pw = pw["min_ratio"] is None or pw["min_ratio"] >= POINTWISE_FLOOR
    verdict = "pass" if (gate_gauge and frame.converged and cons.converged
                         and gate_pw) else "fail"
    return {
        "verdict": verdict,
        "t": float(t),
        "omega_l2": omega.l2_norm(),
        "energy": frame.energy,
        "r_gauge": frame.r_gauge,
        "r_cons": cons.r_cons,
        "conservation_residual_dual": cons_res,
        "B_sup_ratio": bs["ratio"],
        "B_sup": bs["B_sup"],
        "b_wente_gap": bs["l2_gap"],
        "p_structure_residual": structure.residual_dual,
        "p_osc_ratio": posc["ratio"],
        "pointwise_min_ratio": pw["min_ratio"],
        "pointwise_below_020": pw["below_020"],
        "iterations": {"descent": frame.iterations, "fixed_point": cons.iterations},
    }


def _check_gauge(traj, cfg, rng):
    snap = traj.snapshots[-1]
    return gauge_diagnostics(snap.u, snap.ut, traj.manifold, cfg.eps0, snap.t)


def _check_hardy(traj, cfg, rng):
    res = hardy_mod.h1_energy_check(traj, cfg.eps0)
    if res["skipped"]:
        return {"verdict": "skipped", "reason": res["skipped"]}
    ratios = [r["h1_over_energy"] for r in res["rows"]]
    cs = [r["cdsthm_C"] for r in res["rows"]]
    finite = all(math.isfinite(v) for v in ratios + cs)
    return {"verdict": "pass" if finite and ratios else "fail",
            "rows": res["rows"],
            "max_h1_over_energy": max(ratios) if ratios else None,
            "max_cdsthm_C": max(cs) if cs else None}


_CHECK_TABLE = {
    "convexity": _check_convexity,
    "ut_monotone": _check_ut_monotone,
    "decay_identity": _check_decay_identity,
    "cross_term": _check_cross_term,
    "cauchy": _check_cauchy,
    "gauge": _check_gauge,
    "hardy": _check_hardy,
}


# -- scenario runner ---------------------------------------------------------------


def _no_nan(obj, path="report"):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _no_nan(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _no_nan(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise HeatflowError(f"non-finite value at {path}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Run one scenario end to end and return (and optionally write) the report."""
    mesh = build_disk_mesh(cfg.refinement)
    m = manifold_mod.from_config(cfg.target)
    rng = np.random.default_rng(cfg.seed)

    report = {
        "artifact_version": ARTIFACT_VERSION,
        "config": _jsonable(asdict(cfg)),
        "mesh": {"n_vertices": mesh.n_vertices, "n_triangles": mesh.n_triangles,
                 "h": mesh.h, "refinement": cfg.refinement,
                 "min_angle_deg": mesh.min_angle_deg, "area": mesh.area},
        "checks": {},
        "timing": {},
    }

    tau = cfg.tau(mesh.h)
    steps = cfg.t_end / tau if tau > 0 else math.inf
    if steps > flow_mod.MAX_STEPS:
        raise ConfigurationError(
            f"timestep {cfg.timestep} gives tau = {tau:.3g}, so t_end / tau = "
            f"{steps:.3g} exceeds {flow_mod.MAX_STEPS} steps")
    chi, scale, reason = build_boundary_data(cfg, mesh, m)
    if chi is None:
        report["scenario"] = {"feasible": False, "reason": reason}
        for name in cfg.checks:
            report["checks"][name] = {"verdict": "skipped",
                                      "reason": "scenario infeasible"}
        report = _jsonable(report)
        _no_nan(report)
        if out_dir is not None:
            _write_report(report, Path(out_dir))
        return report

    snapshot_times = np.linspace(0.0, cfg.t_end, cfg.snapshots)
    traj = flow_mod.run_flow(mesh, m, chi, cfg.t_end, tau, cfg.eps0,
                             snapshot_times=snapshot_times)

    report["scenario"] = {
        "feasible": True,
        "boundary_scale": scale,
        "energy_initial": float(traj.energy[0]),
        "energy_final": float(traj.energy[-1]),
        "T0": traj.detected_t0(),
        "ut_l2_final": float(math.sqrt(max(traj.ut_l2_sq[-1], 0.0))),
    }
    report["trajectory"] = {
        "steps": len(traj.times) - 1,
        "t_end": float(traj.times[-1]),
        "tau": tau,
        "halvings": traj.halvings,
        "snapshots": len(traj.snapshots),
    }
    report["timing"] = {"steps": len(traj.times) - 1,
                        "snapshots": len(traj.snapshots)}

    for name in cfg.checks:
        result = _CHECK_TABLE[name](traj, cfg, rng)
        report["checks"][name] = result
        if name == "gauge" and "iterations" in result:
            report["gauge"] = {k: result[k] for k in
                               ("energy", "r_gauge", "r_cons", "B_sup_ratio",
                                "p_osc_ratio", "iterations")}
        if name == "hardy" and "rows" in result:
            report["hardy"] = result["rows"]

    report = _jsonable(report)
    _no_nan(report)
    if out_dir is not None:
        _write_report(report, Path(out_dir), traj)
    return report


def _write_report(report, out_dir: Path, traj=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (out_dir / "report.json").write_text(text)
    if traj is not None:
        write_trajectory_csv(traj, out_dir / "trajectory.csv")
        last = traj.snapshots[-1]
        write_snapshot(last.u, last.t, out_dir / "snapshot_final.u.txt")
        write_snapshot(last.ut, last.t, out_dir / "snapshot_final.ut.txt")


def write_trajectory_csv(traj, path):
    lines = ["t,E_raw,ut_L2_sq,tension_L2"]
    for k in range(len(traj.times)):
        lines.append(f"{float(traj.times[k])!r},{float(traj.energy[k])!r},"
                     f"{float(traj.ut_l2_sq[k])!r},{float(traj.tension_l2[k])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_snapshot(field: Field, t: float, path):
    """Mesh-field text format: header `t value_dim`, then one row per vertex."""
    vals = field.values.reshape(field.mesh.n_vertices, -1)
    lines = [f"{float(t)!r} {vals.shape[1]}"]
    for row in vals:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot(mesh, path):
    """Read a file written by write_snapshot. A malformed file raises a
    UsageError that names the file and the line."""
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split()
    if len(header) != 2 or not header[1].isdecimal() or int(header[1]) < 1:
        raise UsageError(f"{path}: line 1: expected the header `t value_dim`, "
                         f"got {lines[0]!r}")
    dim = int(header[1])
    rows = []
    for k, line in enumerate(lines, start=1):
        try:
            row = [float(x) for x in line.split()]
        except ValueError as exc:
            raise UsageError(f"{path}: line {k}: {exc}") from None
        if k > 1 and len(row) != dim:
            raise UsageError(f"{path}: line {k}: expected {dim} values, "
                             f"got {len(row)}")
        rows.append(row)
    vals = np.array(rows[1:]).reshape(len(rows) - 1, dim)
    if vals.shape != (mesh.n_vertices, dim):
        raise UsageError(f"{path}: snapshot shape {vals.shape} does not match mesh "
                         f"({mesh.n_vertices} vertices, {dim} components)")
    return rows[0][0], Field(mesh, vals)


def verify_suite(config_dir, out_dir=None, jobs: int = 1):
    """Run every scenario config in a directory; exit code 0 iff all pass.

    Exploratory metrics never gate; any crash or failed check fails the
    aggregate with the offending scenario named.
    """
    config_dir = Path(config_dir)
    paths = sorted(config_dir.glob("*.json"))
    if not paths:
        raise UsageError(f"no scenario configs (*.json) found in {config_dir}")
    results = {}
    if jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=jobs) as ex:
            futs = {ex.submit(_run_one_suite_entry, str(p), str(out_dir)
                              if out_dir else None): p for p in paths}
            for fut, p in futs.items():
                results[p.stem] = fut.result()
    else:
        for p in paths:
            results[p.stem] = _run_one_suite_entry(str(p), str(out_dir)
                                                   if out_dir else None)
    failures = []
    for name in sorted(results):
        entry = results[name]
        if entry.get("error"):
            failures.append(f"{name}: crashed: {entry['error']}")
            continue
        rep = entry["report"]
        if not rep.get("scenario", {}).get("feasible", False):
            failures.append(f"{name}: infeasible: "
                            f"{rep['scenario'].get('reason', 'unknown')}")
            continue
        for check, res in rep["checks"].items():
            if res["verdict"] == "fail":
                failures.append(f"{name}: check {check} failed")
    aggregate = {
        "scenarios": {name: (results[name].get("report", {}).get("checks", {})
                             if not results[name].get("error") else
                             {"error": results[name]["error"]})
                      for name in sorted(results)},
        "failures": failures,
        "all_pass": not failures,
    }
    return aggregate, (0 if not failures else 1)


def _run_one_suite_entry(config_path: str, out_root):
    try:
        cfg = load_config(config_path)
        out = (Path(out_root) / cfg.name) if out_root else None
        report = run_scenario(cfg, out_dir=out)
        return {"report": report, "error": None}
    except HeatflowError as exc:
        return {"report": None, "error": str(exc)}
    except Exception as exc:
        return {"report": None, "error": f"{type(exc).__name__}: {exc}"}
