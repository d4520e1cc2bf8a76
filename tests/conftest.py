from dataclasses import replace

import pytest

import phasectl as pc
from phasectl.mesh import as_trajectory


def build_problem(n=16, N=8, T=0.1, dim=1, epsilon=0.5, delta=1.0,
                  rho0=0.45, mu0=0.1, u_max=1.0, **kw):
    """One-call problem factory for unit tests."""
    grid = pc.Grid(dim, n, 1.0 if dim == 1 else (1.0, 1.0))
    tg = pc.TimeGrid(T, N)
    return pc.ProblemData(grid=grid, tgrid=tg, epsilon=epsilon, delta=delta,
                          potential=pc.Potential(), rho0=rho0, mu0=mu0,
                          u_max=u_max, **kw)


def manufactured(n=16, N=16, T=0.05, u_dag=0.5, beta1=1.0, beta2=1e-4,
                 **kw):
    """Problem whose targets come from forward-solving a known control."""
    base = build_problem(n=n, N=N, T=T, rho0=0.5, mu0=0.0, **kw)
    ref = pc.solve_state(base, u_dag)
    return replace(base, beta1=beta1, beta2=beta2,
                   rho_target=ref.rho[base.tgrid.N], mu_target=ref.mu), ref


def traj(problem, value):
    return as_trajectory(problem.tgrid, problem.grid, value)


@pytest.fixture
def small():
    return build_problem()

@pytest.fixture
def small2d():
    return build_problem(dim=2, n=(6, 5), N=6)
