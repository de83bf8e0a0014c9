"""Observation matrices drawn from a population, for tests that check the
package's statistics and Monte Carlo cells against a formed sample.

The package itself never forms a sample: a Monte Carlo replication reads
its statistics from the innovations z in a frame of the population.
"""

import numpy as np

from shrinkmean.errors import DimensionMismatchError
from shrinkmean.model import InnovationLaw, PopulationSpec


def generate_sample(
    pop: PopulationSpec,
    n: int,
    law: InnovationLaw,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate a p x n observation matrix sqrt(sigma) @ X + mu 1'."""
    if n < 2:
        raise DimensionMismatchError(f"n must be >= 2, got {n}")
    y = pop.sigma_sqrt() @ law.draw(rng, (pop.p, n))
    y += pop.mu_n[:, None]
    return y
