"""Finite element solver for two-phase flow with an energy-stable split scheme."""

from .mesh import Mesh, build_uniform_mesh
from .fem import FeSpace, QuadratureRule, build_space, interpolate, triangle_quadrature
from .scheme import Forcing, Operators, Params, State, StepReport, build_operators, \
    init_state, modified_energy, step

__version__ = "0.1.0"

__all__ = [
    "Mesh", "build_uniform_mesh",
    "FeSpace", "QuadratureRule", "build_space", "interpolate", "triangle_quadrature",
    "Forcing", "Operators", "Params", "State", "StepReport",
    "build_operators", "init_state", "modified_energy", "step",
    "__version__",
]
