"""Planted-ranking tournaments: the public names of each library module's ``__all__``."""

from .core import *
from .detection import *
from .fourier import *
from .recovery import *
from .spectral import *

__version__ = "0.1.0"
