"""Congruent Folner ladders of monotiles, hierarchical block subshifts over
them, and exact finite-depth approximants of their invariant-measure simplex.
Each module's public names are listed once, in its `__all__`, and re-exported
here.
"""

from .analysis import *
from .blocks import *
from .compose import *
from .errors import *
from .folner import *
from .groups import *
from .matrices import *
from .pipeline import *
from .simplex import *

__version__ = "0.1.0"
