"""Sparse-grid sampling recovery on [0,1]^d with the hierarchical hat basis.

The package exports each module's ``__all__``, the one list of its public names."""

from .dyadic import *
from .faber import *
from .seqnorm import *
from .measure import *
from .testbed import *
from .experiments import *

__version__ = "0.1.0"
