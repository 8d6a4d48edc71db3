"""Heavy-tailed file-size distributions.

Cloud-storage sync traffic is dominated by small files with a long tail of
large ones; the synthesizer draws from a bounded log-normal by default.
"""

from __future__ import annotations

import math
import random

from repro.errors import ConfigError

#: The smallest size a draw returns: no file is emptier than a header.
FLOOR_BYTES = 128


def bounded_lognormal(
    rng: random.Random,
    median_bytes: float,
    sigma: float,
    cap_bytes: float,
) -> int:
    """One draw from a log-normal with the given median, clamped.

    ``sigma`` is the shape parameter of the underlying normal (around 2
    gives the multi-decade spread real traces show).
    """
    if median_bytes <= 0 or cap_bytes < median_bytes or sigma <= 0:
        raise ConfigError("invalid lognormal parameters")
    mu = math.log(median_bytes)
    value = rng.lognormvariate(mu, sigma)
    return int(min(max(value, FLOOR_BYTES), cap_bytes))
