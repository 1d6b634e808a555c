"""Loss landscape statistics for variational models over matrix algebras.

The package models the loss of a randomized variational circuit as a
Wishart-type matrix process over the simple components of a semisimple
algebra.  It provides closed-form landscape statistics, exact samplers for
the loss/gradient/Hessian laws, an exact circuit Monte Carlo for validation,
and a small CLI.
"""

from . import algebra, errors, landscape, model_io, randmat, simulator, wishart_process
from .algebra import *
from .errors import *
from .landscape import *
from .model_io import *
from .randmat import *
from .simulator import *
from .wishart_process import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [name for module in (algebra, errors, landscape, model_io, randmat, simulator,
                               wishart_process)
           for name in module.__all__]
