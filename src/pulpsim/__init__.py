"""Event-driven, timing-approximate simulator for PULP-style RISC-V SoCs.

Importing the package registers the whole component library, so that
config.parse() can validate any platform description.
"""

__version__ = "0.1.0"

from . import memory, interconnect, icache, core, event_unit, dma, periph, \
    accel, cluster  # noqa: F401  (component kind registration)

from .config import parse, serialize, apply_overrides  # noqa: F401
from .build import build, Platform  # noqa: F401
from .engine import TimeEngine, ClockDomain, Event  # noqa: F401
from .errors import ConfigError, StructuralError  # noqa: F401
