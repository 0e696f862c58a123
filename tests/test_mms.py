"""Tests for the manufactured solution: the symbolically derived forcings
are checked against finite differences of the exact fields (an independent
oracle for the symbolic algebra), then a short convergence smoke run."""
import numpy as np
import pytest

from mms import ManufacturedSolution
from nsvisc1d import Grid1D, Params
from nsvisc1d.solver import SchemeConfig, run

P = Params(mu=0.1, alpha=1.0)


def _periodic_gradient(f, dx):
    return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)


def test_forcings_match_finite_differences():
    ms = ManufacturedSolution(P)
    g = Grid1D(0.0, 1.0, 4096)
    x = g.centers()
    t = 0.3
    ht = 1e-6
    dx = g.dx

    rho = ms.rho(x, t)
    u = ms.u(x, t)
    m = rho * u
    mu_of = P.mu * rho ** P.alpha
    pressure = P.a * rho ** P.gamma

    def ddt(fn):
        return (fn(x, t + ht) - fn(x, t - ht)) / (2 * ht)

    # primitive: mass and momentum residuals
    f_rho_num = ddt(lambda xx, tt: ms.rho(xx, tt) * ms.u(xx, tt) * 0
                    + ms.rho(xx, tt)) + _periodic_gradient(m, dx)
    f_m_num = (ddt(lambda xx, tt: ms.rho(xx, tt) * ms.u(xx, tt))
               + _periodic_gradient(m * u, dx)
               - _periodic_gradient(mu_of * _periodic_gradient(u, dx), dx)
               + _periodic_gradient(pressure, dx))
    f_rho_sym, f_m_sym = ms.primitive_source(x, t)
    assert np.max(np.abs(f_rho_num - f_rho_sym)) < 1e-4
    assert np.max(np.abs(f_m_num - f_m_sym)) < 1e-4

    # effective: w agrees with u + d_x phi(rho) numerically
    w_sym = ms.effective_state(g, t).w
    v_num = u + (mu_of / rho ** 2) * _periodic_gradient(rho, dx)
    assert np.max(np.abs(w_sym - rho * v_num)) < 1e-4

    # effective: mass and momentum residuals
    kappa = P.a * P.gamma * rho ** (P.gamma + 1) / mu_of
    f_rho_eff_num = (ddt(lambda xx, tt: ms.rho(xx, tt))
                     - _periodic_gradient(
                         (mu_of / rho) * _periodic_gradient(rho, dx), dx)
                     + _periodic_gradient(w_sym, dx))
    f_w_num = (ddt(lambda xx, tt: ManufacturedSolution(P).effective_state(
                       Grid1D(0.0, 1.0, 4096), tt).w)
               + _periodic_gradient(rho * u * (w_sym / rho), dx)
               + kappa * (w_sym / rho - u))
    f_rho_eff_sym, f_w_sym = ms.effective_source(x, t)
    assert np.max(np.abs(f_rho_eff_num - f_rho_eff_sym)) < 1e-4
    assert np.max(np.abs(f_w_num - f_w_sym)) < 1e-4


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_short_convergence_smoke(formulation):
    ms = ManufacturedSolution(P)
    errs = []
    for cells in (64, 128):
        g = Grid1D(0.0, 1.0, cells)
        cfg = SchemeConfig(formulation=formulation, bc="periodic")
        init = ms.effective_state(g) if formulation == "effective" \
            else ms.state(g)
        source = ms.effective_source if formulation == "effective" \
            else ms.primitive_source
        traj = run(init, 0.02, g, P, cfg, source=source)
        errs.append(ms.l1_error(traj.final_state, g))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.5
