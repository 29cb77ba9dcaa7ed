"""Antagonistic actuation numerics: variable stiffness and variable
aerodynamic damping through co-contraction.

The package re-exports each numerics module's `__all__`, the one statement
of its public names."""

from .aero import *
from .antagonistic import *
from .dual_rotor import *
from .dynamics import *
from .vsa import *

__version__ = "0.1.0"
