"""Resource allocation and benchmarking for semantic feature multiple access downlinks."""

from .channel import ChannelRealization, Topology, draw_channel, path_loss_db, place_users
from .semantic_rate import (
    CalibratedRho,
    InterferenceProfile,
    Link,
    LogisticRhoParams,
    calibrate_rho,
    load_rho_table,
    save_rho_table,
    sinr_conventional,
    sinr_semantic,
)
from .pairing import (
    PairingAssignment,
    UserTerminal,
    pair_users,
    temporal_gap,
)
from .power import (
    ConvergenceError,
    Group,
    KKTReport,
    MinRateInfeasible,
    PowerAllocation,
    SolveResult,
    SolverConfig,
    inter_group_allocate,
    intra_group_allocate,
    kkt_residuals,
    solve,
)
from .baselines import fnoma_sum_rate, ofdma_sum_rate, ojscc_sum_rate, pair_distinctive
from .bench import ConfigError, RunReport, ScenarioConfig, emit_csv, run_sweep

__version__ = "0.1.0"
