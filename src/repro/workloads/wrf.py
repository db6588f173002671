"""WRF-like hurricane simulation output (paper §IV-C).

The paper evaluates two analysis tasks "extracted from a hurricane
simulation": **Min Sea-Level Pressure (hPa)** and **Max 10 m wind speed
(knots)** — both subset accesses in a non-contiguous pattern whose
computation is an additive map-reduce.

We generate the fields procedurally: a moving idealized vortex (a
pressure low with a high-wind eyewall annulus) over a ``(time, y, x)``
grid, plus deterministic noise.  Because the vortex is analytic, the
true extremum location is known and the test suite checks the
``minloc``/``maxloc`` answers against brute-force evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from ..dataspace import DatasetSpec, Subarray, block_partition
from ..errors import DataspaceError
from ..highlevel import VariableDef

#: Ambient sea-level pressure (hPa).
AMBIENT_PRESSURE = 1013.0
#: Central pressure drop of the vortex (hPa).
PRESSURE_DROP = 85.0
#: Background wind (knots) and eyewall peak wind (knots).
BASE_WIND = 12.0
PEAK_WIND = 120.0


@dataclass(frozen=True)
class HurricaneGrid:
    """Geometry of the simulated storm.

    Parameters
    ----------
    nt / ny / nx:
        Time steps and grid extent.
    sigma:
        Gaussian radius of the pressure low, in grid cells.
    eye_radius:
        Radius of maximum wind, in grid cells.
    """

    nt: int
    ny: int
    nx: int
    sigma: float = 12.0
    eye_radius: float = 8.0

    def __post_init__(self) -> None:
        if min(self.nt, self.ny, self.nx) < 4:
            raise DataspaceError(
                f"grid too small: ({self.nt}, {self.ny}, {self.nx})"
            )

    @property
    def shape(self) -> Tuple[int, int, int]:
        """The ``(time, y, x)`` dataset shape."""
        return (self.nt, self.ny, self.nx)

    def track(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Storm-center coordinates at time step(s) ``t`` — a gentle
        north-westward track across the domain."""
        frac = t.astype(np.float64) / max(self.nt - 1, 1)
        cy = 0.25 * self.ny + 0.5 * self.ny * frac
        cx = 0.70 * self.nx - 0.45 * self.nx * frac
        return cy, cx

    def _decompose(self, idx: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        plane = self.ny * self.nx
        t = idx // plane
        rem = idx % plane
        y = rem // self.nx
        x = rem % self.nx
        return t, y, x

    def _radius(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        t, y, x = self._decompose(idx)
        cy, cx = self.track(t)
        r = np.sqrt((y - cy) ** 2 + (x - cx) ** 2)
        return r, t

    def _noise(self, idx: np.ndarray, amplitude: float) -> np.ndarray:
        h = (idx * np.int64(0x9E3779B1)) & np.int64(0x7FFFFFFF)
        return amplitude * (h.astype(np.float64) / float(0x80000000) - 0.5)

    # -- fields ------------------------------------------------------------
    def pressure(self, idx: np.ndarray) -> np.ndarray:
        """Sea-level pressure (hPa): ambient minus a Gaussian low that
        deepens toward the middle of the simulation."""
        r, t = self._radius(idx)
        frac = t.astype(np.float64) / max(self.nt - 1, 1)
        deepening = np.sin(np.pi * np.clip(frac, 0.0, 1.0))
        drop = PRESSURE_DROP * (0.4 + 0.6 * deepening)
        low = drop * np.exp(-0.5 * (r / self.sigma) ** 2)
        return AMBIENT_PRESSURE - low + self._noise(idx, 0.4)

    def wind_speed(self, idx: np.ndarray) -> np.ndarray:
        """10 m wind speed (knots): an eyewall annulus of peak winds at
        ``eye_radius`` from the centre, strongest mid-simulation."""
        r, t = self._radius(idx)
        frac = t.astype(np.float64) / max(self.nt - 1, 1)
        strength = 0.4 + 0.6 * np.sin(np.pi * np.clip(frac, 0.0, 1.0))
        annulus = np.exp(-0.5 * ((r - self.eye_radius) / (0.6 * self.sigma)) ** 2)
        return BASE_WIND + PEAK_WIND * strength * annulus + self._noise(idx, 1.5)

    # -- dataset definition ------------------------------------------------
    def variable_defs(self) -> List[VariableDef]:
        """The two WRF analysis variables as define-mode entries."""
        return [
            VariableDef("PSFC", self.shape, np.float64, func=self.pressure),
            VariableDef("WS10", self.shape, np.float64, func=self.wind_speed),
        ]

    # -- ground truth (brute force, for tests/verification) ---------------------
    def true_min_pressure(self, sub: Subarray) -> Tuple[float, int]:
        """Exhaustive ``(min pressure, linear index)`` over ``sub``."""
        return self._true_extreme(sub, self.pressure, np.argmin)

    def true_max_wind(self, sub: Subarray) -> Tuple[float, int]:
        """Exhaustive ``(max wind, linear index)`` over ``sub``."""
        return self._true_extreme(sub, self.wind_speed, np.argmax)

    def _true_extreme(self, sub: Subarray, field: Callable, pick: Callable
                      ) -> Tuple[float, int]:
        spec = DatasetSpec(self.shape, np.float64)
        sub.validate(spec)
        t0, y0, x0 = sub.start
        nt, ny, nx = sub.count
        tt, yy, xx = np.meshgrid(
            np.arange(t0, t0 + nt), np.arange(y0, y0 + ny),
            np.arange(x0, x0 + nx), indexing="ij",
        )
        lin = (tt * self.ny + yy) * self.nx + xx
        vals = field(lin.reshape(-1).astype(np.int64))
        k = int(pick(vals))
        return (float(vals[k]), int(lin.reshape(-1)[k]))


def hurricane_workload(nprocs: int, *, scale: float = 1.0,
                       time_fraction: float = 1.0) -> Tuple[HurricaneGrid, Subarray, List[Subarray]]:
    """A scaled hurricane-analysis job.

    Returns the grid, the global selection (a y-band subset of every
    analysed time step — non-contiguous in the file), and per-rank
    selections split along time.
    """
    if not 0 < scale <= 1.0:
        raise DataspaceError(f"scale must be in (0, 1], got {scale}")
    s = math.sqrt(scale)
    ny = max(64, int(512 * s))
    nx = max(64, int(512 * s))
    # Time extent carries the workload-size axis: proportional to the
    # fraction, rounded to a multiple of the rank count.
    nt = max(1, round(768 * time_fraction / nprocs)) * nprocs
    grid = HurricaneGrid(nt=nt, ny=ny, nx=nx)
    gsub = Subarray((0, ny // 8, 0), (nt, 3 * ny // 4, nx))
    parts = block_partition(gsub, nprocs, axis=0)
    return grid, gsub, parts
