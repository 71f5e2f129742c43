"""Monte Carlo simulator for central-broadcast QKD with displaced thermal states."""

from .channels import (ChannelParams, PhaseDriftParams, TapSpec, apply_channel,
                       make_freespace_preset, make_waveguide_preset, sample_phase_walk)
from .config import (ConfigError, ScenarioConfig, format_config, load_config,
                     parse_config, save_config, set_config_value)
from .distill import PartyRecord, advantage_distill, bit_error_rate, median_slice
from .harness import (CalibrationError, CalibrationResult, RunArtifacts,
                      calibrate_preset, freespace_scenario, run_scenario, sweep,
                      waveguide_scenario)
from .infotheory import (MetricsReport, build_report, conditional_mutual_information,
                         entropy, g2, joint_counts, mutual_information, pearson_r)
from .modem import (AlignmentResult, bits_to_symbols, estimate_delay,
                    estimate_delay_and_rotation, estimate_global_phase,
                    quadrant_decision, symbols_to_bits)
from .optics import (SourceParams, apply_beamsplitter, heterodyne,
                     joint_covariance_oracle, sample_source_field)

__version__ = "0.1.0"
