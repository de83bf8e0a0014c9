"""The abstract's large-dimension claims, checked on pooled Monte Carlo cells.

Each claim is a rate in p at a fixed concentration c = p/n, and each bound
below is set from that rate, not from the numbers a seed happens to give.
One population per p is not enough to see a trend (the loss of one cell
depends on how its drawn means sit in its covariance's eigenbasis), so each
p pools several populations, drawn from the root seeds 0, 1, 2, ...; smaller
p get more of them, because they cost less and their losses spread more.
"""

import numpy as np
import pytest

from shrinkmean.estimators import limit_intensities
from shrinkmean.harness import McConfig, cell_population, cell_sample_size, run_cell
from shrinkmean.model import InnovationLaw


def pooled_loss_ratios(p, c, gamma, estimators, reference, n_pops, n_reps=5,
                       law=InnovationLaw()):
    """Pooled mean loss of each estimator over that of ``reference``, on the
    replications where every estimator succeeded, and the mean over the
    populations of the limit shrinkage 1 - alpha_limit; innovations follow
    ``law``."""
    totals = dict.fromkeys(estimators, 0.0)
    shrinkage = []
    for seed in range(n_pops):
        config = McConfig(p_grid=(p,), c_grid=(c,), gamma=gamma, n_reps=n_reps,
                          estimators=estimators, seed=seed, law=law)
        pop = cell_population(config, p, c)
        cell = run_cell(config, pop, c)
        shrinkage.append(1.0 - limit_intensities(pop, p / cell_sample_size(p, c))[0])
        used = np.all([np.isfinite(cell.losses[e]) for e in estimators], axis=0)
        for e in estimators:
            totals[e] += float(cell.losses[e][used].sum())
    ratios = {e: totals[e] / totals[reference] for e in estimators if e != reference}
    return ratios, float(np.mean(shrinkage))


@pytest.mark.parametrize("law", ["normal", "t:6", "exponential"])
def test_olse_approaches_the_oracle_below_c1(law):
    # c = 0.5, gamma = 0.  The oracle weights minimize each sample's loss, so
    # the excess loss of the bona fide weights is quadratic in their error;
    # both are sqrt(n)-consistent for the limit weights, so the excess is
    # O(1/n) against an oracle loss of order one: olse / olse-oracle - 1
    # falls like 1/p.  The fitted log-log slope must lie in [-1.5, -0.5]:
    # -0.5 is halfway to no convergence (slope 0), -1.5 as far on the other
    # side of -1.  The abstract claims this "under weak conditions on the
    # data generating mechanism": the consistency argument needs only finite
    # fourth moments, so the same bounds hold for heavier-tailed (t with 6
    # degrees of freedom) and skewed (centred exponential) innovations.
    p_grid = (50, 100, 200, 400)
    excess = []
    for p in p_grid:
        ratios, _ = pooled_loss_ratios(p, 0.5, 0, ("olse", "olse-oracle"), "olse-oracle",
                                       n_pops=2400 // p, law=InnovationLaw.parse(law))
        excess.append(ratios["olse"] - 1.0)
    # the oracle is the per-sample minimum over all (alpha, beta)
    assert min(excess) > 0
    slope = np.polyfit(np.log(p_grid), np.log(excess), 1)[0]
    assert -1.5 <= slope <= -0.5
    assert excess[-1] < excess[0] / 2


@pytest.mark.parametrize("c, estimators", [(0.5, ("olse",)), (2.0, ("olse", "wang"))])
def test_unbounded_norm_tends_to_sample_mean(c, estimators):
    # gamma = 1: |mu_n|^2 = p, so the residual form R of mu_n off the target
    # grows like p and the limit shrinkage 1 - alpha_limit = O(c / (c + R))
    # falls like 1/p.  An estimator alpha y_bar + beta mu_0 moves the loss of
    # the sample mean (about c) by 2 (1 - alpha) (y_bar - mu_n)' sigma^{-1} v
    # + (1 - alpha)^2 v' sigma^{-1} v, with v of squared length about R + c
    # and the cross term about -c: relative to c that is
    # (1 - alpha_limit) (f^2 - 2 f), f the ratio of its shrinkage to the
    # limit's.  So |loss / sample-mean loss - 1| <= 3 (1 - alpha_limit) for
    # any f in [-1, 3], a bound that itself falls like 1/p; a ratio that
    # stays away from 1 breaks it at the larger p.
    for p in (50, 400):
        ratios, shrinkage = pooled_loss_ratios(p, c, 1, ("sample-mean", *estimators),
                                               "sample-mean", n_pops=3200 // p)
        for e in estimators:
            assert abs(ratios[e] - 1.0) <= 3.0 * shrinkage, (e, p, ratios[e], shrinkage)
