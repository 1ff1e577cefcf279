"""bsrig: exact computation in Baumslag-Solitar groups BS(n, m).

The package decides the word problem through unique right-pushed normal
forms, computes the coset index profile (l, r, L) of the almost normal
subgroup <a>, works with double cosets and their convolution algebra,
classifies tree actions on the Bass-Serre tree, performs the exact fusion
bookkeeping of coset and character bimodule labels, and reports
isomorphism and crossed-product obstruction verdicts with machine-checked
certificates.

Each module's ``__all__`` declares the names exported here.
"""

from .words import *
from .hecke import *
from .tree import *
from .fusion import *
from .rigidity import *

__version__ = "0.1.0"
