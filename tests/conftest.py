import os

import numpy as np
import pytest

from copulameasures import CopulaModel

# Reduced-cost CI scale by default; set COPULAMEASURES_ACCEPT_FULL=1 for
# the publication-scale acceptance settings.
FULL = bool(os.environ.get("COPULAMEASURES_ACCEPT_FULL"))


def model_zoo(rng: np.random.Generator):
    """One representative model per family plus random parameter draws."""
    zoo = [
        CopulaModel("product", 2),
        CopulaModel("product", 3),
        CopulaModel("min", 2),
        CopulaModel("min", 3),
        CopulaModel("lower_bound_w", 2),
    ]
    for _ in range(3):
        zoo.extend([
            CopulaModel("clayton", 2, (float(rng.uniform(0.2, 6.0)),)),
            CopulaModel("frank", 2, (float(rng.uniform(0.5, 12.0)),)),
            CopulaModel("gumbel_hougaard", 2, (float(rng.uniform(1.05, 4.0)),)),
            CopulaModel("joe", 2, (float(rng.uniform(1.05, 5.0)),)),
            CopulaModel("gaussian", 2, (float(rng.uniform(-0.85, 0.85)),)),
            CopulaModel("fgm", 2, (float(rng.uniform(-1.0, 1.0)),)),
            CopulaModel("marshall_olkin", 2,
                        (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))),
            CopulaModel("cuadras_auge", 2, (float(rng.uniform(0, 1)),)),
            CopulaModel("gumbel_barnett", 2, (float(rng.uniform(0.05, 1.0)),)),
            CopulaModel("nelsen_4212", 2, (float(rng.uniform(1.0, 4.0)),)),
        ])
    zoo.extend([
        CopulaModel("clayton", 3, (2.0,)),
        CopulaModel("frank", 3, (4.0,)),
        CopulaModel("gumbel_hougaard", 3, (1.8,)),
        CopulaModel("cuadras_auge", 3, (0.3, 0.5, 0.7,)),
        CopulaModel("gaussian", 3, (0.1, 0.2, 0.3)),
    ])
    return zoo


@pytest.fixture(scope="session")
def zoo():
    return model_zoo(np.random.default_rng(20240801))


@pytest.fixture
def built(monkeypatch):
    """max_workers of each process pool gof builds, in order."""
    from copulameasures import gof
    pools = []

    class Counting(gof.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(gof, "ProcessPoolExecutor", Counting)
    return pools
