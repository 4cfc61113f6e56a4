"""Column-partitioned coordinate descent for sparse linear models.

A solver library and benchmark CLI for L1- and elastic-net-regularized
generalized linear models. Data is split by column (feature) across K
logical workers; each round the workers approximately minimize a
data-local quadratic surrogate by coordinate descent, and their updates
are merged through a single shared prediction vector. Every round comes
with a computable duality-gap certificate bounding suboptimality.
"""

from .baselines import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .dataio import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .local import *  # noqa: F401,F403
from .objectives import *  # noqa: F401,F403

__version__ = "0.1.0"
