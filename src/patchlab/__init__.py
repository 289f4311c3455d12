"""Multiscale time-stepping toolkit.

Coarse projective integration for stochastic systems, gap-tooth patch
dynamics for deterministic ones, black-box detection of the spatial
derivative order a simulator depends on, and a particle-in-random-field
testbed whose apparent displacement exponent changes with scale.

The package exports exactly the names each module lists in its ``__all__``.
"""

# defined before the submodules load: cli reads it
__version__ = "0.1.0"

from . import analysis, cli, config, core, kp, micro, order_detect, patch, projective, runner
from .analysis import *
from .cli import *
from .core import *
from .kp import *
from .micro import *
from .order_detect import *
from .patch import *
from .projective import *

__all__ = ["__version__"] + [
    name
    for module in (analysis, cli, config, core, kp, micro, order_detect, patch, projective, runner)
    for name in module.__all__
]
