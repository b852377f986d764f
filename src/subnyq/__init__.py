"""subnyq: multi-coset sub-Nyquist sampling, reconstruction, and spectrum sensing.

Sparse multiband signals can be acquired far below their top frequency by
keeping p of every L base-grid samples.  This package covers the whole chain:
signal models and supports, coset decomposition and the measurement matrix,
conditioning-driven pattern search, pseudo-inverse reconstruction, blind
support recovery from sample statistics (AIC/MDL/EFT order selection with
MUSIC-like or least-squares localization), and a wideband spectrum-sensing
pipeline with detection-probability sweeps.
"""

__version__ = "0.1.0"

from .signals import *
from .sampling import *
from .patterns import *
from .reconstruct import *
from .blind import *
from .sensing import *

# every layer module's __all__, plus the layer modules themselves
__all__ = [name for name in dir() if not name.startswith("_")]
