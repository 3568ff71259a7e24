"""Chebyshev interpolation and quadrature on arbitrary finite intervals.

Four polynomial families (first through fourth kind), five interpolatory
node sets (Fejer-style and endpoint-including), coefficient computation in
the matching family, single-patch and composite quadrature, and a harness
for measuring decay rates and convergence orders on shrinking intervals.
"""

from . import analysis, coefficients, polynomials, quadrature, rules
from .analysis import *
from .coefficients import *
from .polynomials import *
from .quadrature import *
from .rules import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *coefficients.__all__,
    *polynomials.__all__,
    *quadrature.__all__,
    *rules.__all__,
    "__version__",
]
