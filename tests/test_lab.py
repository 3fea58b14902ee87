import dataclasses
import json
import os
import re

import numpy as np
import pytest

from heatflow import lab
from heatflow.cli import main as cli_main
from heatflow.errors import ConfigurationError, UsageError
from heatflow.flow import run_flow
from heatflow.lab import (_check_cauchy, _check_convexity, _check_cross_term,
                          load_config, read_snapshot, run_scenario,
                          validate_config, verify_suite, write_snapshot)
from heatflow.manifold import Sphere
from heatflow.mesh import Field, build_disk_mesh, load_mesh

from conftest import cap_boundary


MINIMAL = {
    "target": {"kind": "sphere", "n": 3},
    "boundary": {"family": "cap", "delta": 0.2},
    "refinement": 3,
    "t_end": 10.0,
}

SMALL_FAST = {
    "target": {"kind": "sphere", "n": 3},
    "boundary": {"family": "cap", "delta": 0.12},
    "refinement": 1,
    "t_end": 2.0,
    "checks": ["convexity", "ut_monotone", "decay_identity", "cross_term",
               "cauchy"],
    "seed": 7,
    "snapshots": 9,
}


def test_minimal_config_gets_defaults():
    cfg = validate_config(dict(MINIMAL))
    assert cfg.eps0 == 0.1
    assert cfg.checks == ("convexity", "ut_monotone", "decay_identity",
                          "cross_term", "gauge", "hardy", "cauchy")
    assert cfg.timestep == {"factor": 4.0}
    assert cfg.seed == 20260809


def test_config_rejects_bad_eps0():
    raw = dict(MINIMAL, eps0=-1.0)
    with pytest.raises(ConfigurationError, match="eps0"):
        validate_config(raw)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="epsilon0_typo"):
        validate_config(dict(MINIMAL, epsilon0_typo=0.1))
    with pytest.raises(ConfigurationError, match="radius"):
        validate_config(dict(MINIMAL, target={"kind": "sphere", "radius": 2}))
    with pytest.raises(ConfigurationError, match="width"):
        validate_config(dict(MINIMAL,
                             boundary={"family": "cap", "delta": 0.1,
                                       "width": 2}))
    with pytest.raises(ConfigurationError, match="dt"):
        validate_config(dict(MINIMAL, timestep={"dt": 0.1}))
    with pytest.raises(ConfigurationError, match="t_end"):
        validate_config(dict(MINIMAL, t_end=0.5))
    with pytest.raises(ConfigurationError):
        validate_config(dict(MINIMAL, checks=["convexity", "bogus"]))


def test_config_parse_error_mentions_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "target": [,]\n}\n')
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(p)


def test_env_seed_override(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(MINIMAL, seed=1)))
    monkeypatch.setenv("HEATFLOW_SEED", "4321")
    assert load_config(p).seed == 4321
    monkeypatch.delenv("HEATFLOW_SEED")
    assert load_config(p).seed == 1


@pytest.mark.parametrize("value", [0, 1, -3, 2.5, "64", True])
def test_config_rejects_bad_snapshots(value):
    with pytest.raises(ConfigurationError, match="snapshots"):
        validate_config(dict(MINIMAL, snapshots=value))
    assert validate_config(dict(MINIMAL, snapshots=2)).snapshots == 2


@pytest.mark.parametrize("value", [-1, 1.5, "50", None])
def test_config_rejects_bad_pair_samples(value):
    with pytest.raises(ConfigurationError, match="pair_samples"):
        validate_config(dict(MINIMAL, pair_samples=value))
    assert validate_config(dict(MINIMAL, pair_samples=0)).pair_samples == 0


@pytest.mark.parametrize("value", [-1, "abc", 1.5])
def test_config_rejects_bad_seed(value):
    with pytest.raises(ConfigurationError, match="seed"):
        validate_config(dict(MINIMAL, seed=value))


@pytest.mark.parametrize("value", ["x1", "-1", "1.5", ""])
def test_config_rejects_bad_env_seed(monkeypatch, value):
    monkeypatch.setenv("HEATFLOW_SEED", value)
    with pytest.raises(ConfigurationError, match="HEATFLOW_SEED"):
        validate_config(dict(MINIMAL))


@pytest.mark.parametrize("update, key", [
    ({"checks": "gauge"}, "checks"),
    ({"timestep": 5}, "timestep"),
    ({"timestep": {"factor": -1}}, "timestep.factor"),
    ({"timestep": {"tau": float("inf")}}, "timestep.tau"),
    ({"t_end": float("inf")}, "t_end"),
    ({"boundary": {"family": "cap", "delta": "0.1"}}, "boundary.delta"),
    ({"t_end": "abc"}, "t_end"),
    ({"eps0": "abc"}, "eps0"),
    ({"eps0": float("inf")}, "eps0"),
    ({"refinement": True}, "refinement"),
    ({"target": {"kind": "sphere", "n": 2}}, "target.n"),
    ({"boundary": {"family": "cap", "delta": float("nan")}}, "boundary.delta"),
    ({"boundary": {"family": "fourier", "coeffs": [["a", 0, 0, 0]]}},
     "boundary.coeffs"),
    ({"boundary": {"family": "fourier", "coeffs": [[1, 2, 3, float("nan")]]}},
     "boundary.coeffs"),
    ({"boundary": {"family": "fourier", "coeffs": [5]}}, "boundary.coeffs"),
])
def test_config_rejects_values_that_cannot_run(update, key):
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        validate_config(dict(MINIMAL, **update))


def test_run_scenario_smoke(tmp_path):
    cfg = validate_config(dict(SMALL_FAST))
    report = run_scenario(cfg, out_dir=tmp_path / "out")
    assert report["scenario"]["feasible"]
    assert set(report["checks"]) == set(SMALL_FAST["checks"])
    for name, res in report["checks"].items():
        assert res["verdict"] in ("pass", "fail", "skipped")
        assert res["verdict"] == "pass", name
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "trajectory.csv").exists()
    csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,E_raw,ut_L2_sq,tension_L2"
    assert len(csv) == report["trajectory"]["steps"] + 2


def test_run_scenario_deterministic(tmp_path):
    cfg = validate_config(dict(SMALL_FAST))
    run_scenario(cfg, out_dir=tmp_path / "a")
    run_scenario(cfg, out_dir=tmp_path / "b")
    ra = (tmp_path / "a" / "report.json").read_bytes()
    rb = (tmp_path / "b" / "report.json").read_bytes()
    assert ra == rb
    ca = (tmp_path / "a" / "trajectory.csv").read_bytes()
    cb = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert ca == cb


def test_infeasible_cap_radius(tmp_path):
    cfg = validate_config(dict(SMALL_FAST,
                               boundary={"family": "cap", "delta": 1.5}))
    report = run_scenario(cfg, out_dir=tmp_path / "out")
    assert report["scenario"]["feasible"] is False
    assert "delta" in report["scenario"]["reason"]
    for res in report["checks"].values():
        assert res["verdict"] == "skipped"


def test_no_sampled_pairs_skips_pair_checks():
    cfg = validate_config(dict(SMALL_FAST, pair_samples=0))
    report = run_scenario(cfg)
    for name in ("convexity", "cross_term"):
        assert report["checks"][name]["verdict"] == "skipped", name
        assert report["checks"][name]["reason"]
    assert report["checks"]["cauchy"]["verdict"] == "pass"


def test_single_post_t0_snapshot_skips_pair_checks(mesh_at):
    # eps0 just below the penultimate kinetic norm moves T0 to the last step,
    # so exactly one snapshot lies at or after T0 and no pair exists
    mesh = mesh_at(1)
    m = Sphere(3)
    traj = run_flow(mesh, m, cap_boundary(mesh, m, 0.12), 2.0,
                    4 * mesh.h ** 2, 0.1, snapshot_times=np.linspace(0, 2, 9))
    late = dataclasses.replace(traj, eps0=float(traj.ut_l2_sq[-2]))
    t0 = late.detected_t0()
    assert t0 is not None
    assert int(np.sum(late.snapshot_times >= t0 - 1e-12)) == 1
    cfg = validate_config(dict(SMALL_FAST))
    for check in (_check_convexity, _check_cross_term, _check_cauchy):
        res = check(late, cfg, np.random.default_rng(0))
        assert res["verdict"] == "skipped", check.__name__
        assert res["reason"]

    never = dataclasses.replace(traj, eps0=0.0)
    assert never.detected_t0() is None
    res = _check_cauchy(never, cfg, np.random.default_rng(0))
    assert res == {"verdict": "skipped", "reason": "T0 undetected"}


def test_short_trajectory_skips_ut_monotone():
    # one step of tau = 5 overshoots t_end = 2, so only t = 0 is stored
    cfg = validate_config(dict(SMALL_FAST, timestep={"tau": 5}))
    report = run_scenario(cfg)
    assert report["trajectory"]["steps"] < 2
    res = report["checks"]["ut_monotone"]
    assert res["verdict"] == "skipped"
    assert res["reason"]


def test_fourier_boundary_runs():
    cfg = validate_config({
        "target": {"kind": "sphere", "n": 3},
        "boundary": {"family": "fourier",
                     "coeffs": [[0.05, 0.0, 0.0, 0.04], [0.01, 0.02, 0.0, 0.0]]},
        "refinement": 1,
        "t_end": 1.5,
        "checks": ["convexity", "ut_monotone"],
        "snapshots": 7,
    })
    report = run_scenario(cfg)
    assert report["scenario"]["feasible"]
    assert report["scenario"]["energy_initial"] < 0.1


def test_report_completeness_and_finiteness(tmp_path):
    cfg = validate_config(dict(SMALL_FAST))
    report = run_scenario(cfg)
    # every requested check appears exactly once, nothing else
    assert sorted(report["checks"]) == sorted(SMALL_FAST["checks"])

    def walk(o):
        if isinstance(o, dict):
            for v in o.values():
                walk(v)
        elif isinstance(o, list):
            for v in o:
                walk(v)
        elif isinstance(o, float):
            assert np.isfinite(o)
    walk(report)


def test_verify_suite(tmp_path):
    cfgdir = tmp_path / "suite"
    cfgdir.mkdir()
    (cfgdir / "a.json").write_text(json.dumps(SMALL_FAST))
    (cfgdir / "b.json").write_text(json.dumps(
        dict(SMALL_FAST, seed=8, boundary={"family": "cap", "delta": 0.1})))
    aggregate, code = verify_suite(cfgdir, out_dir=tmp_path / "reports")
    assert code == 0
    assert aggregate["all_pass"]
    assert sorted(aggregate["scenarios"]) == ["a", "b"]


def test_verify_suite_parallel_matches_serial(tmp_path):
    cfgdir = tmp_path / "suite"
    cfgdir.mkdir()
    (cfgdir / "a.json").write_text(json.dumps(SMALL_FAST))
    (cfgdir / "b.json").write_text(json.dumps(dict(SMALL_FAST, seed=9)))
    serial, code1 = verify_suite(cfgdir)
    parallel, code2 = verify_suite(cfgdir, jobs=2)
    assert code1 == code2 == 0
    assert serial == parallel


def test_verify_suite_flags_failure(tmp_path):
    cfgdir = tmp_path / "suite"
    cfgdir.mkdir()
    (cfgdir / "good.json").write_text(json.dumps(SMALL_FAST))
    (cfgdir / "bad.json").write_text(json.dumps(
        dict(SMALL_FAST, boundary={"family": "cap", "delta": 1.5})))
    aggregate, code = verify_suite(cfgdir)
    assert code == 1
    assert any("bad" in f for f in aggregate["failures"])


def test_verify_suite_names_scenario_of_any_crash(tmp_path, monkeypatch):
    cfgdir = tmp_path / "suite"
    cfgdir.mkdir()
    (cfgdir / "good.json").write_text(json.dumps(SMALL_FAST))
    (cfgdir / "boom.json").write_text(json.dumps(SMALL_FAST))
    real = lab.run_scenario

    def run(cfg, out_dir=None):
        if cfg.name == "boom":
            raise ZeroDivisionError("float division by zero")
        return real(cfg, out_dir=out_dir)

    monkeypatch.setattr(lab, "run_scenario", run)
    aggregate, code = verify_suite(cfgdir)
    assert code == 1
    assert aggregate["failures"] == [
        "boom: crashed: ZeroDivisionError: float division by zero"]
    assert aggregate["scenarios"]["good"]["cauchy"]["verdict"] == "pass"


def test_verify_suite_empty_dir(tmp_path):
    with pytest.raises(UsageError):
        verify_suite(tmp_path)


def test_snapshot_roundtrip(tmp_path, mesh2):
    rng = np.random.default_rng(0)
    f = Field(mesh2, rng.standard_normal((mesh2.n_vertices, 3)))
    path = tmp_path / "snap.u.txt"
    write_snapshot(f, 1.25, path)
    t, back = read_snapshot(mesh2, path)
    assert t == 1.25
    assert np.array_equal(back.values, f.values)


def test_cli_mesh_and_run(tmp_path, capsys):
    rc = cli_main(["mesh", "--refinement", "1", "--out",
                   str(tmp_path / "m.txt")])
    assert rc == 0
    m = load_mesh(tmp_path / "m.txt")
    assert m.n_vertices == build_disk_mesh(1).n_vertices

    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(SMALL_FAST))
    capsys.readouterr()
    rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"] is True


def test_cli_gauge_and_hardy_on_snapshot(tmp_path, capsys):
    # the CLI and the report share one pipeline, so on the final snapshot
    # they print the same numbers, bit for bit
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(dict(SMALL_FAST, checks=["gauge", "hardy"],
                                        t_end=4.0)))
    rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"]["gauge"]["verdict"] == "pass"
    assert report["checks"]["hardy"]["verdict"] == "pass"
    snap = tmp_path / "out" / "snapshot_final.u.txt"
    assert snap.exists()
    rc = cli_main(["gauge", str(snap), str(cfg_path)])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert "r_gauge" in res and np.isfinite(res["r_gauge"])
    assert res == report["checks"]["gauge"]
    rc = cli_main(["hardy", str(snap), str(cfg_path)])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)
    assert np.isfinite(res["h1_density"])
    assert res == report["checks"]["hardy"]["rows"][-1]


def test_cli_gauge_on_constant_map_takes_zero_potential_shortcut(
        tmp_path, capsys):
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(SMALL_FAST))
    mesh = build_disk_mesh(SMALL_FAST["refinement"])
    snap = tmp_path / "const.u.txt"
    write_snapshot(Field(mesh, np.tile([0.0, 0.0, 1.0], (mesh.n_vertices, 1))),
                   1.0, snap)
    rc = cli_main(["gauge", str(snap), str(cfg_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "pass", "note": "zero potential (constant map)"}


@pytest.mark.parametrize("text, line", [
    ("", 1),                        # empty file
    ("1.0\n0 0 1\n", 1),            # header without two fields
    ("1.0 3\n0 0 1\n0 x 1\n", 3),   # non-numeric entry
], ids=["empty", "short_header", "non_numeric"])
def test_cli_rejects_malformed_snapshot(tmp_path, capsys, text, line):
    cfg_path = tmp_path / "s.json"
    cfg_path.write_text(json.dumps(SMALL_FAST))
    snap = tmp_path / "bad.u.txt"
    snap.write_text(text)
    for command in ("gauge", "hardy"):
        rc = cli_main([command, str(snap), str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"bad.u.txt: line {line}:" in err


@pytest.mark.parametrize("timestep", [{"tau": 1e-300}, {"factor": 1e-300},
                                      {"factor": 5e-324}])
def test_step_count_cap_rejects_tiny_timestep(monkeypatch, timestep):
    def never(*args, **kwargs):
        raise AssertionError("run_flow must not start")

    monkeypatch.setattr(lab.flow_mod, "run_flow", never)
    cfg = validate_config(dict(SMALL_FAST, timestep=timestep))
    with pytest.raises(ConfigurationError, match="timestep"):
        run_scenario(cfg)


def test_run_flow_refuses_more_than_max_steps(mesh_at, monkeypatch):
    import heatflow.flow as flow

    def never(*args, **kwargs):
        raise AssertionError("run_flow must not step")

    monkeypatch.setattr(flow, "step", never)
    mesh = mesh_at(1)
    m = Sphere(3)
    chi = cap_boundary(mesh, m, 0.12)
    with pytest.raises(UsageError, match="steps"):
        run_flow(mesh, m, chi, 2.0, 2.0 / (flow.MAX_STEPS + 1), 0.1)
    with pytest.raises(UsageError, match="positive"):
        run_flow(mesh, m, chi, 2.0, 0.0, 0.1)
