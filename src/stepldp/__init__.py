"""Step-graphon algebra, cut metrics, entropy rate functions, and
large-deviation experiments for block-model random graphs."""

from . import graphon, cutmetric, coloured, rates, samplers, ldplab
from .graphon import *
from .cutmetric import *
from .coloured import *
from .rates import *
from .samplers import *
from .ldplab import *

__version__ = "0.1.0"

__all__ = (graphon.__all__ + cutmetric.__all__ + coloured.__all__ + rates.__all__
           + samplers.__all__ + ldplab.__all__ + ["__version__"])
