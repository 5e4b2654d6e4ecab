"""Guided flow-matching sampling for action-chunked control.

A small numpy library in three layers: flow-matching primitives over
analytic Gaussian-mixture chunk priors (`flow`), guided denoising with
prior-corrected weights and an orthogonal trust region (`guidance`,
`chunking`), and a closed-loop synthetic benchmark with paired-seed
experiment orchestration (`envs`, `metrics`, `harness`).
"""

from .chunking import (
    BoundaryEvent,
    ChunkExecutor,
    ChunkScheduleState,
    EpisodeTrace,
    build_inpaint_target,
    build_soft_mask,
)
from .envs import (
    ConditionalGMField,
    Observation,
    Obstacle,
    OraclePolicyParams,
    PointMassEnv,
    TaskVariant,
    conditional_field,
    default_variants,
    make_env,
    make_field,
)
from .errors import ConfigError, DomainError, NumericError, ScheduleOverrun, StructuralError
from .flow import (
    GaussianMixtureField,
    GaussianMixtureFieldParams,
    VelocityField,
    gm_linearize,
    gm_velocity,
)
from .guidance import (
    GuidanceConfig,
    GuidanceMethod,
    InpaintTarget,
    guided_denoise,
    otr_project,
    pc_weight,
    pseudoinverse_correction,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    SweepResult,
    grid_search_rho,
    grid_search_sigma,
    load_config,
    read_rows,
    run_cell_episode,
    run_sweep,
    summarize,
    write_rows,
)
from .metrics import EpisodeMetrics, chunk_switch_l2, episode_metrics, max_acc_jerk

__version__ = "0.1.0"
