"""Two-point quadrature from endpoint derivative data.

The order-n rule integrates the polynomial matching f, f', ..., f^(n-1)
at both interval endpoints.  Weights and error kernels are exact
rationals; the kernels are shifted, unnormalized Legendre polynomials,
and the quadrature error is an integral against them weighted by the
n-th derivative only.

The package exports each submodule's ``__all__``, so a public name is
listed once, in the module that defines it.
"""

from .exactmath import *
from .expressions import *
from .interpolant import *
from .kernel import *
from .oracle import *
from .quadrature import *
from .verify import *
from .weights import *

__version__ = "0.1.0"

__all__ = (
    exactmath.__all__ + expressions.__all__ + interpolant.__all__ + kernel.__all__
    + oracle.__all__ + quadrature.__all__ + verify.__all__ + weights.__all__ + ["__version__"]
)
