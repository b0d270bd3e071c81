"""Optimal transport between tensor-valued measures.

Fields of positive semidefinite matrices are transported, interpolated
and averaged through entropic scaling iterations built on a dense
symmetric-matrix calculus.  The package exports the public names of its
modules, each listed once, in that module's ``__all__``.
"""

from . import barycenter, cost, fileio, interpolate, measure, render, solver, sym
from .barycenter import *
from .cost import *
from .fileio import *
from .interpolate import *
from .measure import *
from .render import *
from .solver import *
from .sym import *

__version__ = "0.1.0"

__all__ = [name for module in (barycenter, cost, fileio, interpolate, measure,
                               render, solver, sym)
           for name in module.__all__]
