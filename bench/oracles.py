"""Reference values computed by the benchmark itself, never by the program.

- ``flat_pullin_exact``: closed-form pull-in voltage of the flat-limit
  model u'' = lam/(1+u)^2 on (-1, 1), u(+-1) = 0.
- ``flat_pullin_discrete``: the same fold for the program's second-order
  difference scheme, found by marching the symmetric discrete solution out
  from the centre; its distance to the exact value is the discretisation
  error the pull-in check allows.
- ``MappedModel``: an independent implementation of the program's mapped
  potential discretisation (Kronecker-product assembly, scipy ``spsolve``),
  its IMEX evolution step and its steady residual.  ``evolve`` and
  ``steady_fold`` produce the stored references in ``reference.json``.

Regenerate ``reference.json`` with ``python3 bench/oracles.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.optimize import brentq, minimize_scalar
from scipy.sparse.linalg import spsolve

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def nonexistence_bound(eps: float) -> float:
    """min{2 J(eps), 2/3} / eps with J(r) = r (2r^2+3) / (3 (r^2+1)^{3/2})."""
    j = eps * (2.0 * eps * eps + 3.0) / (3.0 * (eps * eps + 1.0) ** 1.5)
    return min(2.0 * j, 2.0 / 3.0) / eps


def flat_pullin_exact() -> float:
    """Largest lam with a symmetric solution w = 1+u of w'' = lam/w^2.

    With w(0) = a the first integral gives lam(a) = I(a)^2 / 2,
    I(a) = sqrt(a) (sqrt(1-a) + a arccosh(1/sqrt(a))); pull-in is its maximum.
    """

    def lam(a):
        return 0.5 * (math.sqrt(a) * (math.sqrt(1.0 - a) + a * math.acosh(1.0 / math.sqrt(a)))) ** 2

    res = minimize_scalar(lambda a: -lam(a), bounds=(0.05, 0.95), method="bounded",
                          options={"xatol": 1e-12})
    return float(-res.fun)


def _discrete_endpoint(lam: float, depth: float, n_cells: int) -> float:
    h2 = (2.0 / n_cells) ** 2
    u = -depth
    u_next = u + h2 * lam / (2.0 * (1.0 + u) ** 2)  # centre row, mirror symmetry
    for _ in range(n_cells // 2 - 1):
        u, u_next = u_next, 2.0 * u_next - u + h2 * lam / (1.0 + u_next) ** 2
    return u_next


def flat_pullin_discrete(n_cells: int) -> float:
    """Fold of the discrete flat-limit steady problem on ``n_cells`` cells."""
    if n_cells % 2:
        raise ValueError("the centre march needs an even cell count")

    def lam_of_depth(depth):
        hi = 0.1
        while _discrete_endpoint(hi, depth, n_cells) < 0.0:
            hi *= 2.0
        return brentq(lambda lam: _discrete_endpoint(lam, depth, n_cells), 0.0, hi,
                      xtol=1e-15, rtol=1e-15)

    res = minimize_scalar(lambda d: -lam_of_depth(d), bounds=(0.2, 0.6), method="bounded",
                          options={"xatol": 1e-9})
    return float(-res.fun)


def _central_1d(n_cells: int, length: float):
    """First and second central differences on the interior nodes of a
    uniform grid with ``n_cells`` cells, as sparse (n+1) x (n+1) matrices
    whose boundary rows are zero."""
    h = length / n_cells
    n = n_cells + 1
    lo = np.r_[np.ones(n - 2), 0.0]
    up = np.r_[0.0, np.ones(n - 2)]
    d1 = sp.diags([-lo / (2 * h), up / (2 * h)], [-1, 1], shape=(n, n))
    mid = np.r_[0.0, -2.0 * np.ones(n - 2), 0.0]
    d2 = sp.diags([lo / h**2, mid / h**2, up / h**2], [-1, 0, 1], shape=(n, n))
    return d1, d2


class MappedModel:
    """Independent re-implementation of the membrane model on an
    ``n_x`` x ``n_eta`` grid over [-1, 1] x [0, 1]."""

    def __init__(self, n_x: int, n_eta: int, eps: float):
        self.n_x, self.n_eta, self.eps = n_x, n_eta, eps
        self.x = np.linspace(-1.0, 1.0, n_x + 1)
        self.eta = np.linspace(0.0, 1.0, n_eta + 1)
        self.h, self.h_eta = 2.0 / n_x, 1.0 / n_eta
        dx, dxx = _central_1d(n_x, 2.0)
        de, dee = _central_1d(n_eta, 1.0)
        ix, ie = sp.identity(n_x + 1), sp.identity(n_eta + 1)
        self._ops = (sp.kron(dxx, ie), sp.kron(dx, de), sp.kron(ix, dee), sp.kron(ix, de))
        inner = np.zeros((n_x + 1, n_eta + 1), dtype=bool)
        inner[1:-1, 1:-1] = True
        self._inner = inner.ravel()
        self._phi_boundary = np.broadcast_to(self.eta, inner.shape).ravel()[~self._inner]

    def slope(self, u: np.ndarray) -> np.ndarray:
        return np.gradient(u, self.h, edge_order=2)

    def curvature(self, u: np.ndarray) -> np.ndarray:
        h2 = self.h * self.h
        d2 = np.empty_like(u)
        d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
        d2[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / h2
        d2[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h2
        return d2

    def membrane_trace(self, u: np.ndarray) -> np.ndarray:
        """d(phi)/d(eta) at eta = 1 of the mapped potential for membrane ``u``."""
        e2 = self.eps * self.eps
        w = 1.0 + u
        du, d2u = self.slope(u), self.curvature(u)
        eta = self.eta
        a_xeta = -2.0 * e2 * np.outer(du / w, eta)
        a_etaeta = (1.0 + e2 * np.outer(du * du, eta * eta)) / (w * w)[:, None]
        b_eta = e2 * np.outer(2.0 * (du / w) ** 2 - d2u / w, eta)
        coeffs = (np.full(a_xeta.shape, e2), a_xeta, a_etaeta, b_eta)
        op = sum(sp.diags(c.ravel()) @ o for c, o in zip(coeffs, self._ops)).tocsr()
        inner = self._inner
        rhs = -(op[inner][:, ~inner] @ self._phi_boundary)
        phi = np.broadcast_to(self.eta, (self.n_x + 1, self.n_eta + 1)).copy()
        phi[1:-1, 1:-1] = spsolve(op[inner][:, inner].tocsc(), rhs).reshape(
            self.n_x - 1, self.n_eta - 1
        )
        return (3.0 * phi[:, -1] - 4.0 * phi[:, -2] + phi[:, -3]) / (2.0 * self.h_eta)

    def evolve(self, u0: np.ndarray, lam: float, dt: float, steps: int) -> np.ndarray:
        """``steps`` semi-implicit steps: curvature diffusion implicit with its
        coefficient frozen, electrostatic source explicit."""
        e2 = self.eps * self.eps
        u = u0.astype(float).copy()
        for _ in range(steps):
            du = self.slope(u)
            tr = self.membrane_trace(u)
            source = (1.0 + e2 * du * du) / (1.0 + u) ** 2 * tr * tr
            r = dt * (1.0 + e2 * du[1:-1] ** 2) ** -1.5 / self.h**2
            bands = np.zeros((3, r.size))
            bands[0, 1:] = -r[:-1]
            bands[1] = 1.0 + 2.0 * r
            bands[2, :-1] = -r[1:]
            rhs = u[1:-1] - dt * lam * source[1:-1]
            u = np.zeros_like(u)
            u[1:-1] = solve_banded((1, 1), bands, rhs)
        return u

    def steady_source(self, u: np.ndarray) -> np.ndarray:
        du = self.slope(u)
        tr = self.membrane_trace(u)
        return ((1.0 + self.eps**2 * du * du) ** 2.5 / (1.0 + u) ** 2 * tr * tr)[1:-1]

    def steady_at_depth(self, depth: float, guess: np.ndarray, lam_guess: float):
        """Steady state whose centre deflection is ``-depth``, with the voltage
        as the extra unknown; Newton with a difference Jacobian."""
        n_int = self.n_x - 1
        centre = n_int // 2
        u, lam = guess.copy(), lam_guess

        def residual(u_int, lam):
            full = np.r_[0.0, u_int, 0.0]
            src = self.steady_source(full)
            return self.curvature(full)[1:-1] - lam * src, src

        for _ in range(30):
            f, src = residual(u, lam)
            g = np.r_[f, u[centre] + depth]
            if np.max(np.abs(g)) < 1e-11:
                return u, lam
            jac = np.zeros((n_int + 1, n_int + 1))
            step = 1e-7
            for j in range(n_int):
                up = u.copy()
                up[j] += step
                jac[:n_int, j] = (residual(up, lam)[0] - f) / step
            jac[:n_int, n_int] = -src
            jac[n_int, centre] = 1.0
            delta = np.linalg.solve(jac, -g)
            u, lam = u + delta[:n_int], lam + delta[n_int]
        raise RuntimeError(f"depth-constrained Newton failed at depth {depth}")

    def steady_fold(self, depths) -> float:
        """Largest voltage along the steady branch, parametrised by the
        centre depth: coarse scan over ``depths``, then a bounded refinement."""
        u = np.zeros(self.n_x - 1)
        lam = 0.0
        found = []
        for d in depths:
            u, lam = self.steady_at_depth(d, u, lam)
            found.append((u, lam))
        best = max(range(len(found)), key=lambda k: found[k][1])
        lo = depths[max(best - 1, 0)]
        hi = depths[min(best + 1, len(depths) - 1)]

        def neg_lam(d):
            return -self.steady_at_depth(d, *found[best])[1]

        res = minimize_scalar(neg_lam, bounds=(lo, hi), method="bounded", options={"xatol": 1e-5})
        return float(-res.fun)


def build_reference() -> dict:
    """Recompute every stored reference (slow: a few minutes)."""
    import tasks

    ref = {"evolve": {}, "continuation": {}}
    seed, index = tasks.DEFAULT_SEED, 0
    cfg = tasks.task_config("evolve", seed, index)
    model = MappedModel(cfg["n_x"], cfg["n_eta"], cfg["eps"])
    depth = cfg["initial_condition"]["parabola"]
    u0 = -depth * (1.0 - model.x**2)
    steps = tasks.evolve_steps(cfg)
    u = model.evolve(u0, cfg["lambda"], cfg["dt"], steps)
    ref["evolve"][f"{seed}:{index}"] = {"steps": steps, "final_u": [float(v) for v in u]}

    n = tasks.CONTINUATION_N
    for eps in tasks.CONTINUATION_EPS:
        fold = MappedModel(n, n, eps).steady_fold(np.arange(0.05, 0.9, 0.05))
        ref["continuation"][repr(eps)] = {"n": n, "fold": fold}
    return ref


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    data = build_reference()
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
