"""Online selective verification with strong-verifier escalation.

A two-threshold policy routes each weak-scored item to accept, reject, or
strong verification, and adjusts its thresholds from importance-weighted
strong feedback so long-run error rates track chosen targets on arbitrary
streams. The package also ships the population-optimal policy theory, a
finite-time slack bound, synthetic verification environments, an
experiment runner, and a CLI (`selverify`).

The public names are those of the six modules' `__all__` lists, plus
`__version__`.
"""

__version__ = "0.1.0"

from . import distributions, experiments, metrics, policy, population, streams
from .distributions import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .policy import *  # noqa: F401,F403
from .population import *  # noqa: F401,F403
from .streams import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (distributions, experiments, metrics, policy, population, streams)
    for name in module.__all__
]
