"""Exact decision engine for convex-order inequalities between quadrature
functionals on [0, 1], with closed-form case checkers for three classic
parametric families and an independent hinge-grid oracle.

The public names are each module's __all__, re-exported here."""

from .functionals import *
from .oracle import *
from .ordering import *
from .theorems import *

__version__ = "0.1.0"
