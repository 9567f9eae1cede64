"""Minimum sum-MSE linear precoding for the multiuser MIMO downlink via
the virtual uplink, with numerical certification that the optimal
downlink and virtual-uplink power allocations coincide."""

from .designer import BOTH, SIMPLIFIED, DesignConfig, DesignResult, design
from .duality import (DualityData, DualityReport, build_duality_data,
                      psi_asymmetry, transform_power, transform_power_uplink,
                      verify_theorem)
from .errors import (ConvergenceError, DimensionError, DualPrecError,
                     InfeasibleTransformError, NumericsError,
                     SingularTransformError, ValidationError)
from .model import (DOWNLINK, VIRTUAL_UPLINK, ChannelSet, EffectiveChannel,
                    PrecoderSet, SystemDims, build_effective_channel,
                    channel_from_dict, channel_to_dict, gen_channel,
                    load_instance, random_unit_precoders, save_instance,
                    validate)
from .objective import (UplinkState, downlink_mmse, make_state,
                        mmse_directions, sum_mse_uplink, uplink_mse)
from .solver import KktCertificate, SolverConfig, project_power, solve_power

__version__ = "0.1.0"
