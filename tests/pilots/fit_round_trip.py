"""Regenerates the frozen Monte Carlo standard errors used by
test_fit.TestEstimate.  Run:  python tests/pilots/fit_round_trip.py
"""

import numpy as np

from copulameasures import CopulaModel, estimate

POINTS = [
    ("clayton", 0.5), ("clayton", 2.0), ("clayton", 6.0),
    ("frank", 1.0), ("frank", 5.0), ("frank", 14.0),
    ("gumbel_hougaard", 1.2), ("gumbel_hougaard", 2.0),
    ("gumbel_hougaard", 4.0),
    ("joe", 1.5), ("joe", 3.0), ("joe", 7.0),
]

N = 5000
SEEDS = 50


def pilot_se() -> dict:
    """(family, param) -> standard error of the fitted parameter over
    SEEDS samples of size N."""
    table = {}
    for family, param in POINTS:
        model = CopulaModel(family, 2, (param,))
        draws = [estimate(family, model.sample(N, seed=1_000_000 + s)).model.params[0]
                 for s in range(SEEDS)]
        table[family, param] = float(np.std(draws, ddof=1))
    return table


def main():
    print("_PILOT_SE = {")
    for (family, param), se in pilot_se().items():
        print(f'    ("{family}", {param}): {se:.4g},')
    print("}")


if __name__ == "__main__":
    main()
