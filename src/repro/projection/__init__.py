"""Provider-scale energy/cost projection built on the transfer
algorithms (the paper's economic motivation, made computable)."""

from repro.projection.model import (
    WORLD_TRANSFER_TWH_PER_YEAR,
    FleetModel,
    JobClass,
    PolicyReport,
    global_projection_twh,
)

__all__ = [
    "FleetModel",
    "JobClass",
    "PolicyReport",
    "WORLD_TRANSFER_TWH_PER_YEAR",
    "global_projection_twh",
]
