"""Treatment-effect estimation for recurring rare events in panel time
series where no untreated control is ever observed during the event.

The top-level names are the library modules' ``__all__``, joined in the
order imported below; each name is declared once, in its own module.
"""

from . import ar, baselines, dataio, errors, evaluation, forecaster, impact, montecarlo, panel
from .ar import *
from .baselines import *
from .dataio import *
from .errors import *
from .evaluation import *
from .forecaster import *
from .impact import *
from .montecarlo import *
from .panel import *

__version__ = "0.1.0"

__all__ = []
__all__ += ar.__all__
__all__ += baselines.__all__
__all__ += dataio.__all__
__all__ += errors.__all__
__all__ += evaluation.__all__
__all__ += forecaster.__all__
__all__ += impact.__all__
__all__ += montecarlo.__all__
__all__ += panel.__all__
