"""Hessian Riemannian Langevin Monte Carlo sampling toolkit."""

from . import analysis, entropy, errors, experiments, metrics, sampler, target
from .analysis import (
    bound_report,
    check_baillon_haddad,
    estimate_constants,
    iteration_complexity,
)
from .entropy import (
    boltzmann_shannon,
    burg,
    euclidean,
    logit_barrier,
    mixed,
    parse_entropy,
    register_table1_entropies,
)
from .experiments import ExperimentConfig, run_convergence_experiment, run_dimension_sweep
from .metrics import gaussian_w2, mirror_embed, moment_report, w2phi
from .sampler import (
    Trace,
    constant_schedule,
    harmonic_schedule,
    largest_admissible_a,
    reference_chain,
    run_parallel_chains,
)
from .target import (
    beta_target,
    exact_sample,
    gamma_target,
    gaussian_target,
    parse_target,
    r_constant,
    register_table2_targets,
)

__version__ = "0.1.0"
