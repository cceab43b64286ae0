"""Explicit finite-difference solver for the 2-d heat equation.

Generates the space-time tensor used by the compression experiments:
``u_t = u_xx + u_yy`` on the unit square, five-point stencil, forward
Euler time stepping.  Boundary values are held at their initial values and
the initial temperature is the tent profile
``u(x, y) = 1/4 - |1/2 - x| * |1/2 - y|``.

The grid puts ``n = round(1/ds)`` nodes at ``0, ds, ..., (n-1) ds`` along
each axis, so neighbouring nodes are exactly ``ds`` apart and the default
time step ``ds^2/4`` sits exactly at the forward-Euler stability bound.
The far edges ``x = 1`` and ``y = 1`` then fall between grid and boundary:
they enter the stencil as frozen ghost samples of the boundary function.

The result stacks the initial state followed by one snapshot per completed
time step into an ``(n, n, steps)`` tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor
from .errors import CapacityError, ConfigError

__all__ = [
    "HeatConfig",
    "solve_heat",
    "default_initial",
    "factor_dims",
    "reshape_to_factors",
]

# Refuse to materialise snapshot stacks beyond this entry count.
SNAPSHOT_BUDGET = 2 * 10**8


@dataclass(frozen=True)
class HeatConfig:
    """Discretisation parameters.

    ``ds`` is the grid spacing: ``round(1 / ds)`` nodes per axis at
    ``0, ds, 2 ds, ...``.  ``dt`` defaults to the stability bound
    ``ds^2 / 4``; a larger value is rejected since forward Euler then
    diverges.  The snapshot count is ``round(t_end / dt)``, covering the
    initial state and ``round(t_end / dt) - 1`` completed steps; a time
    step that leaves ``t_end / dt`` infinite is rejected.
    """

    ds: float = 0.02
    dt: float | None = None
    t_end: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.ds < 0.5:
            raise ConfigError(f"spatial step must lie in (0, 0.5), got {self.ds}")
        if not 0.0 < self.t_end < np.inf:
            raise ConfigError(f"end time must be positive and finite, got {self.t_end}")
        limit = 0.25 * self.ds * self.ds
        if self.dt is not None:
            if not 0.0 < self.dt < np.inf:
                raise ConfigError(f"time step must be positive and finite, got {self.dt}")
            if self.dt > limit * (1.0 + 1e-12):
                raise ConfigError(
                    f"time step {self.dt} violates the stability bound "
                    f"{limit} for spatial step {self.ds}"
                )
        # 0.25 ds^2 can underflow to zero, and t_end / dt overflow.
        if not self.time_step > 0.0 or self.t_end / self.time_step == np.inf:
            raise ConfigError(
                f"time step {self.time_step} is too small for end time {self.t_end}"
            )

    @property
    def nodes(self) -> int:
        return round(1.0 / self.ds)

    @property
    def time_step(self) -> float:
        return 0.25 * self.ds * self.ds if self.dt is None else self.dt

    @property
    def steps(self) -> int:
        return round(self.t_end / self.time_step)


def default_initial(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tent profile ``1/4 - |1/2 - x| * |1/2 - y|``."""
    return 0.25 - np.abs(0.5 - x) * np.abs(0.5 - y)


def solve_heat(config: HeatConfig) -> DenseTensor:
    """March the equation and stack the snapshots.

    The tent profile :func:`default_initial` sets the starting state, the
    frozen in-grid boundary rows, and the ghost samples on the far edges.
    Returns an ``(n, n, steps)`` tensor whose first axis is x, second is
    y, third is time; the first time slab is the initial field itself.
    """
    n = config.nodes
    if n < 3:
        raise ConfigError(
            f"spatial step {config.ds} leaves no interior nodes on [0, 1]"
        )
    steps = config.steps
    if steps < 1:
        raise ConfigError(
            f"end time {config.t_end} is shorter than one time step"
        )
    if n * n * steps > SNAPSHOT_BUDGET:
        raise CapacityError(
            f"snapshot stack of {n:.3g}x{n:.3g}x{steps:.3g} entries exceeds "
            f"the {SNAPSHOT_BUDGET:.3g} entry budget"
        )
    h = config.ds
    coords = h * np.arange(n + 1)
    # u carries one ghost row and column at coordinate n*ds; together with
    # the frozen row 0 / column 0 they encode the Dirichlet data.
    u = default_initial(coords[:, None], coords[None, :])
    dt = config.time_step
    alpha = dt / (h * h)
    snapshots = np.empty((n, n, steps), dtype=np.float64, order="F")
    snapshots[:, :, 0] = u[:n, :n]
    for k in range(1, steps):
        interior = (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
            - 4.0 * u[1:-1, 1:-1]
        )
        # Row 0, column 0, and the ghost edges are never written, so they
        # stay at the boundary-function values.
        u[1:-1, 1:-1] += alpha * interior
        snapshots[:, :, k] = u[:n, :n]
    if not np.all(np.isfinite(snapshots)):
        raise ConfigError(
            "time marching diverged; the configured steps are unstable"
        )
    return DenseTensor(snapshots)


def factor_dims(n: int) -> list[int]:
    """Nondecreasing prime factorisation of ``n``.

    Used to reshape a snapshot tensor into many short modes before a
    higher-order compression pass.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: list[int] = []
    rest = n
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            out.append(p)
            rest //= p
        p += 1
    if rest > 1:
        out.append(rest)
    return out or [1]


def reshape_to_factors(t: DenseTensor) -> DenseTensor:
    """Split every mode into its prime factors, preserving entry order.

    A ``(100, 100, 10000)`` snapshot tensor becomes a 16-way tensor of
    twos and fives.  Flattened entries are untouched, so compression
    errors measured against either shape agree.
    """
    dims: list[int] = []
    for d in t.dims:
        dims.extend(factor_dims(d))
    return t.reshape(tuple(dims))
