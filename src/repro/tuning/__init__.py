"""Dynamic precision tuning: believability search and runtime control."""

from .believability import (
    BelievabilityCriteria,
    EnergyTrace,
    deviation,
    energy_trace,
    is_believable,
    minimum_precision,
)
from .controller import ControlledSimulation, PrecisionController

__all__ = [
    "BelievabilityCriteria",
    "EnergyTrace",
    "deviation",
    "energy_trace",
    "is_believable",
    "minimum_precision",
    "ControlledSimulation",
    "PrecisionController",
]
