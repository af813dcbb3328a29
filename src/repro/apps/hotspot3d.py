"""HotSpot3D thermal simulation (NumPy port of the Rodinia mini-app).

The paper integrates its ABFT prototypes into the HotSpot3D stencil code
of the Rodinia benchmark suite: "a widely used simulation tool to
estimate processor temperature based on an architectural floorplan and
simulated power measurements" (Section 5). HotSpot3D advances the chip
temperature field with an explicit 7-point stencil whose coefficients
derive from the thermal RC network of the chip stack:

.. code-block:: c

    tOut[c] = cc*tIn[c] + cw*tIn[w] + ce*tIn[e] + cs*tIn[s] + cn*tIn[n]
            + cb*tIn[b] + ct*tIn[t] + (dt/Cap)*power[c] + ct*amb_temp;

with clamped ("bounce-back") boundary indices — exactly the kernel shown
in Figure 2 of the paper. In the library's terms this is a
:class:`~repro.stencil.spec.StencilSpec` with seven weights plus a
per-point constant term ``C = (dt/Cap) * power + ct * amb_temp``, so the
whole application is protected by the generic ABFT machinery without any
HotSpot-specific code.

Substitution note (see DESIGN.md): the original benchmark reads the
power map and the initial temperature from trace files shipped with
Rodinia; this port synthesises equivalent inputs (uniform background
power plus a configurable number of rectangular hotspots) from a seeded
random generator, which preserves the stencil structure, the magnitude
range of the fields and therefore the behaviour of checksum-based
detection and correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.stencil.boundary import BoundaryCondition, BoundarySpec
from repro.stencil.grid import Grid3D
from repro.stencil.spec import StencilSpec

__all__ = ["HotSpot3DConfig", "HotSpot3D", "hotspot3d_stencil", "hotspot3d_coefficients"]

# Physical constants of the Rodinia HotSpot3D model.
K_SI = 100.0           #: thermal conductivity of silicon [W/(m K)]
SPEC_HEAT_SI = 1.75e6  #: volumetric specific heat of silicon [J/(m^3 K)]
FACTOR_CHIP = 0.5      #: effective capacitance factor
MAX_PD = 3.0e6         #: maximum power density [W/m^2]
PRECISION = 0.001      #: time-step precision parameter


@dataclass(frozen=True)
class HotSpot3DConfig:
    """Configuration of a HotSpot3D run.

    The defaults reproduce the paper's small tile (64x64x8); use
    ``HotSpot3DConfig.paper_large()`` for the 512x512x8 tile.
    """

    nx: int = 64
    ny: int = 64
    nz: int = 8
    t_chip: float = 0.0005      #: chip thickness [m]
    chip_height: float = 0.016  #: chip height [m]
    chip_width: float = 0.016   #: chip width [m]
    amb_temp: float = 80.0      #: ambient temperature
    dtype: str = "float32"
    #: number of synthetic rectangular hotspots in the power map
    hotspots: int = 4
    #: steady-state temperature rise over ambient produced by the uniform
    #: background power (degrees). The synthetic power map is expressed in
    #: terms of the temperature rise it sustains so that the simulation
    #: stays physical at every grid resolution.
    background_rise: float = 20.0
    #: steady-state temperature rise over ambient inside a hotspot (degrees)
    hotspot_rise: float = 80.0
    seed: int = 12345

    @classmethod
    def paper_small(cls) -> "HotSpot3DConfig":
        """The paper's 64x64x8 tile."""
        return cls(nx=64, ny=64, nz=8)

    @classmethod
    def paper_large(cls) -> "HotSpot3DConfig":
        """The paper's 512x512x8 tile."""
        return cls(nx=512, ny=512, nz=8)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)


def hotspot3d_coefficients(config: HotSpot3DConfig) -> dict:
    """Derive the stencil coefficients from the chip's thermal RC network.

    Follows the Rodinia HotSpot3D setup code: cell sizes, thermal
    resistances along each axis, the cell capacitance and the stable
    explicit time step.
    """
    dx = config.chip_height / config.nx
    dy = config.chip_width / config.ny
    dz = config.t_chip / config.nz

    cap = FACTOR_CHIP * SPEC_HEAT_SI * config.t_chip * dx * dy
    rx = dy / (2.0 * K_SI * config.t_chip * dx)
    ry = dx / (2.0 * K_SI * config.t_chip * dy)
    rz = dz / (K_SI * dx * dy)

    max_slope = MAX_PD / (FACTOR_CHIP * config.t_chip * SPEC_HEAT_SI)
    dt = PRECISION / max_slope

    step_div_cap = dt / cap
    ce = cw = step_div_cap / rx
    cn = cs = step_div_cap / ry
    ct = cb = step_div_cap / rz
    cc = 1.0 - (2.0 * ce + 2.0 * cn + 3.0 * ct)
    return {
        "dt": dt,
        "cap": cap,
        "rx": rx,
        "ry": ry,
        "rz": rz,
        "step_div_cap": step_div_cap,
        "ce": ce,
        "cw": cw,
        "cn": cn,
        "cs": cs,
        "ct": ct,
        "cb": cb,
        "cc": cc,
    }


def hotspot3d_stencil(config: HotSpot3DConfig) -> StencilSpec:
    """The 7-point HotSpot3D stencil as a :class:`StencilSpec`.

    Axis convention: x/west-east is axis 0, y/north-south is axis 1 and
    z/below-above (towards the heat sink) is axis 2.
    """
    c = hotspot3d_coefficients(config)
    return StencilSpec.seven_point_3d(
        center=c["cc"],
        west=c["cw"],
        east=c["ce"],
        north=c["cn"],
        south=c["cs"],
        below=c["cb"],
        above=c["ct"],
    )


def _synthetic_power_map(config: HotSpot3DConfig, rng: np.random.Generator) -> np.ndarray:
    """Synthetic power map: uniform background plus hot rectangles.

    The original benchmark reads per-cell power values from a trace file;
    here each cell's power is chosen so that, in steady state against the
    vertical coupling to ambient, it sustains a temperature rise of
    ``background_rise`` (or ``hotspot_rise`` inside a hotspot) degrees —
    i.e. ``power = rise * ct / step_div_cap``. This keeps the resulting
    temperature field bounded and realistic at every resolution while
    preserving the kernel's structure (the power only enters through the
    constant term of the sweep).
    """
    coeff = hotspot3d_coefficients(config)
    per_degree = coeff["ct"] / coeff["step_div_cap"]
    dtype = np.dtype(config.dtype)
    power = np.full(config.shape, config.background_rise * per_degree, dtype=dtype)
    for _ in range(config.hotspots):
        wx = max(1, config.nx // 8)
        wy = max(1, config.ny // 8)
        x0 = int(rng.integers(0, max(1, config.nx - wx)))
        y0 = int(rng.integers(0, max(1, config.ny - wy)))
        z0 = int(rng.integers(0, config.nz))
        power[x0 : x0 + wx, y0 : y0 + wy, z0] = config.hotspot_rise * per_degree
    return power


def _synthetic_initial_temperature(
    config: HotSpot3DConfig, rng: np.random.Generator
) -> np.ndarray:
    """Initial temperature field: near thermal equilibrium plus noise."""
    dtype = np.dtype(config.dtype)
    base = np.full(
        config.shape, config.amb_temp + config.background_rise, dtype=dtype
    )
    noise = rng.normal(0.0, 1.0, size=config.shape).astype(dtype)
    return base + noise


class HotSpot3D:
    """A configured HotSpot3D simulation.

    The instance owns the power map and initial temperature (generated
    once from the config seed) and builds fresh :class:`Grid3D` objects
    on demand, so fault-injection campaigns can restart from identical
    initial conditions for every repetition.

    Examples
    --------
    >>> app = HotSpot3D(HotSpot3DConfig(nx=32, ny=32, nz=4))
    >>> grid = app.build_grid()
    >>> grid.run(8).shape
    (32, 32, 4)
    """

    def __init__(self, config: Optional[HotSpot3DConfig] = None) -> None:
        self.config = config if config is not None else HotSpot3DConfig()
        rng = np.random.default_rng(self.config.seed)
        self.coefficients = hotspot3d_coefficients(self.config)
        self.spec = hotspot3d_stencil(self.config)
        self.power = _synthetic_power_map(self.config, rng)
        self.initial_temperature = _synthetic_initial_temperature(self.config, rng)
        dtype = np.dtype(self.config.dtype)
        # Constant term of the sweep: power heating + coupling to ambient.
        # Read-only, so every grid this app builds shares it.
        self.constant = (
            self.coefficients["step_div_cap"] * self.power
            + self.coefficients["ct"] * self.config.amb_temp
        ).astype(dtype)
        self.constant.flags.writeable = False
        self.boundary = BoundarySpec.clamp(3)

    def build_grid(self) -> Grid3D:
        """A fresh grid initialised with this simulation's inputs."""
        return Grid3D(
            self.initial_temperature,
            self.spec,
            self.boundary,
            constant=self.constant,
        )

    def reference_solution(self, iterations: int) -> np.ndarray:
        """Error-free final temperature field after ``iterations`` sweeps."""
        grid = self.build_grid()
        grid.run(iterations)
        return grid.u.copy()

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.config.shape

    @property
    def boundary_condition(self) -> BoundaryCondition:
        return self.boundary.axis(0)
