"""Column-partitioned coordinate descent for sparse linear models.

A solver library and benchmark CLI for L1- and elastic-net-regularized
generalized linear models. Data is split by column (feature) across K
logical workers; each round the workers approximately minimize a
data-local quadratic surrogate by coordinate descent, and their updates
are merged through a single shared prediction vector. Every round comes
with a computable duality-gap certificate bounding suboptimality.
"""

from .baselines import BaselineConfig, mb_cd_round, prox_gd_step, solve_baseline
from .data import ColMatrix, Partition, partition_columns, sq_spectral_norm
from .dataio import (DataFormatError, SyntheticSpec, TRACE_FIELDS,
                     gen_synthetic, read_libsvm, write_libsvm, write_trace)
from .engine import (EngineConfig, RoundTrace, SolveResult, SolverState,
                     check_lemma3, check_sigma_safety, check_v, run_round,
                     solve, theory_round_bound)
from .local import (BlockColumns, LocalResult, SubproblemView,
                    coordinate_update, measure_theta, solve_local,
                    subproblem_value)
from .objectives import (DataFit, DualDomainError, ELASTIC_NET, GapReport, L1,
                         LEAST_SQUARES, LOGISTIC, ObjectiveSpec, Regularizer,
                         default_support_bound, duality_gap, ell_conj,
                         ell_value, f_conj, f_grad, f_value, make_objective,
                         primal_value)

__version__ = "0.1.0"
