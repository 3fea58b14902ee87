"""Check the oracles on cases with known answers.

    python3 bench/selftest.py

Uses a ring triangulation of the unit disk built here with scipy's Delaunay,
so heatflow is not involved. Exits 0 when every case holds. `run.py` runs
the same cases at the end of every benchmark run.
"""

import math
import sys

import numpy as np
from scipy.spatial import Delaunay

import oracles


def _ring_mesh(rings=8):
    pts = [(0.0, 0.0)]
    for k in range(1, rings + 1):
        th = 2.0 * np.pi * np.arange(6 * k) / (6 * k)
        pts += list(zip(k / rings * np.cos(th), k / rings * np.sin(th)))
    vertices = np.array(pts)
    return vertices, Delaunay(vertices).simplices.astype(np.int64)


def run():
    """Problems found (empty when every oracle is right)."""
    problems = []
    vertices, tris = _ring_mesh()
    x, y = vertices[:, 0], vertices[:, 1]
    areas = oracles.triangle_areas(vertices, tris)

    # an affine map has a constant gradient, and its energy is |A|^2 |D_h|
    A = np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, 0.1]])      # 3 components
    u = np.column_stack([1.0 + A[i, 0] * x + A[i, 1] * y for i in range(3)])
    g = oracles.p1_gradient(vertices, tris, u)
    if np.abs(g - A.T[None]).max() > 1e-12:
        problems.append("affine map: gradient is not constant")
    energy = oracles.dirichlet_energy(areas, g)
    if abs(energy - (A ** 2).sum() * areas.sum()) > 1e-12 * energy:
        problems.append("affine map: energy is not |A|^2 |D_h|")
    g2 = oracles.p1_gradient(vertices, tris, 0.5 * u)
    diff = oracles.energy_difference(areas, g, g2)
    if abs(diff - 0.75 * energy) > 1e-12 * energy:
        problems.append("affine maps: energy difference is not E(u) - E(u/2)")

    # snapshots s_k u of the affine map: gap(i, j) = (s_i - s_j)^2 E and
    # E_i - E_j = (s_i^2 - s_j^2) E, with E the energy of u
    s = np.linspace(1.0, 0.2, 11)
    value, max_gap, pairs = oracles.cauchy_supremum(
        areas, lambda k: oracles.p1_gradient(vertices, tris, s[k] * u), len(s))
    want = max((s[i] - s[j]) ** 2 - 4.0 * (s[i] ** 2 - s[j] ** 2)
               for i in range(len(s)) for j in range(i + 1, len(s))) * energy
    if pairs != 55 or abs(value - want) > 1e-12 * energy \
            or abs(max_gap - (s[0] - s[-1]) ** 2 * energy) > 1e-12 * energy:
        problems.append("affine snapshots: Cauchy supremum is not the closed form")

    # a constant density has f* = c at every vertex
    c = 1.7
    fstar = oracles.brute_maximal(vertices, tris, np.full(len(tris), c),
                                  np.arange(len(vertices)))
    if np.abs(fstar - c).max() > 1e-12 * c:
        problems.append("constant density: f* is not c")

    # the bump has unit mass and the Poisson pair satisfies -Laplace(v) = f
    bump = oracles.Bump()
    r = np.linspace(0.0, bump.r_out, 200001)
    w = bump(r) * 2.0 * np.pi * r
    mass = float(np.sum(0.5 * (w[1:] + w[:-1]) * np.diff(r)))
    if abs(mass - 1.0) > 1e-8:
        problems.append(f"bump mass {mass!r} is not 1")
    d = 1e-4
    for px, py in [(0.1, 0.2), (-0.4, 0.3), (0.0, -0.6)]:
        lap = (oracles.poisson_exact(px + d, py) + oracles.poisson_exact(px - d, py)
               + oracles.poisson_exact(px, py + d) + oracles.poisson_exact(px, py - d)
               - 4.0 * oracles.poisson_exact(px, py)) / (d * d)
        if abs(-lap - oracles.poisson_source(px, py)) > 1e-5:
            problems.append(f"Poisson pair: -Laplace(v) != f at ({px}, {py})")
    if np.abs(oracles.poisson_exact(np.cos(r[:50]), np.sin(r[:50]))).max() > 1e-14:
        problems.append("Poisson pair: v is not zero on the circle")

    # points built on each target have zero defect; pushed off, they do not
    a, b = np.linspace(0.0, 6.0, 7), np.linspace(1.0, 4.0, 7)
    on = {
        "sphere": np.column_stack([np.cos(a) * np.sin(b), np.sin(a) * np.sin(b), np.cos(b)]),
        "torus3": np.column_stack([(2.0 + np.cos(b)) * np.cos(a),
                                   (2.0 + np.cos(b)) * np.sin(a), np.sin(b)]),
        "clifford": np.column_stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)])
        / math.sqrt(2.0),
    }
    for kind, p in on.items():
        target = {"kind": kind, "R": 2.0, "r": 1.0} if kind == "torus3" else {"kind": kind}
        if oracles.constraint_defect(target, p).max() > 1e-14:
            problems.append(f"{kind}: points on the target have a defect")
        if oracles.constraint_defect(target, 1.01 * p).min() < 1e-4:
            problems.append(f"{kind}: points off the target have no defect")
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print(f"selftest: {p}")
    print("selftest: ok" if not found else f"selftest: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
