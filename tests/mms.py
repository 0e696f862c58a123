"""Manufactured smooth solution with symbolically derived forcing terms,
used by the convergence studies for both formulations."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

from nsvisc1d.core import EffectiveState, Grid1D, Params, State


@dataclass(frozen=True)
class ManufacturedSolution:
    """rho = 1 + A sin(k(x - t)), u = A sin(k(x - t)) on a periodic domain of
    length 2*pi/k, with the forcing that makes each formulation exact."""

    params: Params
    amplitude: float = 0.1
    wavenumber: float = 2.0 * np.pi

    def _lambdified(self):
        return _build(self.params, self.amplitude, self.wavenumber)

    # exact fields -----------------------------------------------------
    def rho(self, x, t):
        return 1.0 + self.amplitude * np.sin(self.wavenumber * (x - t))

    def u(self, x, t):
        return self.amplitude * np.sin(self.wavenumber * (x - t))

    def state(self, g: Grid1D, t: float = 0.0) -> State:
        x = g.centers()
        return State(self.rho(x, t), self.rho(x, t) * self.u(x, t), t)

    def effective_state(self, g: Grid1D, t: float = 0.0) -> EffectiveState:
        x = g.centers()
        fns = self._lambdified()
        return EffectiveState(self.rho(x, t), fns["w"](x, t), t)

    # forcings ---------------------------------------------------------
    def primitive_source(self, x, t):
        fns = self._lambdified()
        return fns["f_rho"](x, t), fns["f_m"](x, t)

    def effective_source(self, x, t):
        fns = self._lambdified()
        return fns["f_rho_eff"](x, t), fns["f_w"](x, t)

    def l1_error(self, s, g: Grid1D) -> float:
        """L1 density error against the exact profile at the state's time."""
        return float(np.sum(np.abs(s.rho - self.rho(g.centers(), s.t))) * g.dx)


@lru_cache(maxsize=8)
def _build(p: Params, amp: float, k: float):
    x, t = sp.symbols("x t", real=True)
    rho = 1 + amp * sp.sin(k * (x - t))
    u = amp * sp.sin(k * (x - t))

    mu_of = p.mu * rho ** p.alpha
    if p.has_reg_term:
        mu_of = mu_of + rho ** p.theta / p.n_reg
    P = p.a * rho ** p.gamma

    m = rho * u
    f_rho = sp.diff(rho, t) + sp.diff(m, x)
    f_m = (sp.diff(m, t) + sp.diff(m * u, x)
           - sp.diff(mu_of * sp.diff(u, x), x) + sp.diff(P, x))

    v = u + (mu_of / rho ** 2) * sp.diff(rho, x)
    w = rho * v
    kappa_rho = p.a * p.gamma * rho ** (p.gamma + 1) / mu_of
    f_rho_eff = (sp.diff(rho, t) - sp.diff((mu_of / rho) * sp.diff(rho, x), x)
                 + sp.diff(w, x))
    f_w = sp.diff(w, t) + sp.diff(rho * u * v, x) + kappa_rho * (v - u)

    def lam(expr):
        fn = sp.lambdify((x, t), sp.simplify(expr), modules="numpy")
        return lambda xv, tv: np.asarray(fn(xv, tv), dtype=float) \
            + np.zeros_like(np.asarray(xv, dtype=float))

    return {"f_rho": lam(f_rho), "f_m": lam(f_m),
            "f_rho_eff": lam(f_rho_eff), "f_w": lam(f_w), "w": lam(w)}
