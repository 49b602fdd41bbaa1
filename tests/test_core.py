import copy
import dataclasses
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmlab import coefficients, concentration, curvature, experiments, transport
from mmlab.config import STRUCTURAL_TOL
from mmlab.core import (
    FiniteMmSpace,
    _triangle_scan,
    _validate_distance_matrix,
    condition_measure,
    first_feasible,
    line_embedding,
    partition_average,
    prob_weights,
    pushforward,
    subset_diameter,
)
from mmlab.errors import InvalidDimension, ValidationError, ZeroMassSet
from mmlab.transport import WeightedOneDimSpace, discretize


def square_space(weights=(0.25, 0.25, 0.25, 0.25)):
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    return FiniteMmSpace.from_points(pts, weights)


# ---------------------------------------------------------------------------
# weights and conditioning


def test_prob_weights_validation():
    w = prob_weights([0.5, 0.5])
    assert not w.flags.writeable
    with pytest.raises(ValidationError):
        prob_weights([0.6, 0.6])
    with pytest.raises(ValidationError):
        prob_weights([1.2, -0.2])


NAN, INF = math.nan, math.inf
# every array-entry check, each with its bad entry after a good one, and the
# message it gives: "<rule>, <argument>[<index>] = <value>"
ENTRY_CHECKS = {
    "prob_weights-finite": (
        lambda: prob_weights([0.5, NAN, 0.5]),
        "weights must be finite, weights[1] = nan"),
    "prob_weights-nonnegative": (
        lambda: prob_weights([0.75, -0.25, 0.5]),
        "weights must be nonnegative, weights[1] = -0.25"),
    "check_t": (
        lambda: coefficients.sigma_vals(1.0, np.array([[0.5, 0.2], [0.3, 1.5]]),
                                        0.1),
        "t must lie in [0,1], t[1, 1] = 1.5"),
    "sigma_vals-thetas": (
        lambda: coefficients.sigma_vals(1.0, 0.5, [0.1, -0.2]),
        "theta must be nonnegative, thetas[1] = -0.2"),
    "partial_diameter_1d-values": (
        lambda: concentration.partial_diameter_1d([0.0, INF], [0.5, 0.5], 0.5),
        "values must be finite, values[1] = inf"),
    "partial_diameter_1d-weights": (
        lambda: concentration.partial_diameter_1d([0.0, 1.0], [0.5, -0.5], 0.5),
        "weights must be finite and nonnegative, weights[1] = -0.5"),
    "levy_bound_sequence-N": (
        lambda: concentration.levy_bound_sequence([1.0, 2.0], [-1.0, 0.5],
                                                  0.1, "CD"),
        "dimension parameters must be negative, N_list[1] = 0.5"),
    "levy_bound_sequence-K": (
        lambda: concentration.levy_bound_sequence([1.0, INF], [-1.0, -1.0],
                                                  0.1, "CD"),
        "every K must be finite, K_list[1] = inf"),
    "renyi_entropy-mu": (
        lambda: curvature.renyi_entropy([0.5, -0.5, 1.0], [0.5, 0.5, 0.0], -1.0),
        "masses must be finite and nonnegative, mu[1] = -0.5"),
    "renyi_entropy-nu": (
        lambda: curvature.renyi_entropy([0.5, 0.5], [0.5, NAN], -1.0),
        "masses must be finite and nonnegative, nu[1] = nan"),
    "condition_measure-nan": (
        lambda: condition_measure([0.5, NAN], [0, 1]),
        "masses must be finite and nonnegative, mu[1] = nan"),
    "condition_measure-negative": (
        lambda: condition_measure([1.5, -0.5], [0, 1]),
        "masses must be finite and nonnegative, mu[1] = -0.5"),
    "pushforward": (
        lambda: pushforward([NAN, 1.0], [0, 0]),
        "masses must be finite and nonnegative, mu[0] = nan"),
    "partition_average-nu": (
        lambda: partition_average([0.5, -0.5, 1.0], [[0, 1], [2]],
                                  [0.25, 0.25, 0.5]),
        "masses must be finite and nonnegative, nu[1] = -0.5"),
    "partition_average-mu": (
        lambda: partition_average([0.5, 0.5], [[0], [1]], [0.5, INF]),
        "masses must be finite and nonnegative, mu[1] = inf"),
    "kn_convexity_check": (
        lambda: curvature.kn_convexity_check([0.0, NAN, 0.0, 0.0, 0.0],
                                             1.0, -1.0, 0.1),
        "f samples must be finite, f_samples[1] = nan"),
    "WeightedOneDimSpace-log_density": (
        lambda: WeightedOneDimSpace("segment", 1.0, [0.0, INF]),
        "log_density must not contain NaN or +inf (-inf marks empty cells), "
        "log_density[1] = inf"),
    "validate_density": (
        lambda: WeightedOneDimSpace("segment", 1.0, np.zeros(4))
        .validate_density([1.0, -1.0, 2.0, 2.0]),
        "density samples must be finite and nonnegative, rho[1] = -1.0"),
    "from_density": (
        lambda: WeightedOneDimSpace.from_density("segment", 1.0, 2, [1.0, 0.0]),
        "density samples must be positive; use masses 0 through measures on "
        "a sub-grid instead, density[1] = 0.0"),
    "prokhorov_from_distances": (
        lambda: transport.prokhorov_from_distances(
            np.array([[0.0, 1.0, -1.0], [NAN, 0.0, 1.0]]), [0.5, 0.5],
            [0.25, 0.25, 0.5]),
        "distances must be finite and nonnegative, dist[0, 2] = -1.0"),
    "ky_fan": (
        lambda: transport.ky_fan([0.5, 0.5], [0.0, 1.0], [0.0, -INF]),
        "function samples must be finite, g[1] = -inf"),
}


@pytest.mark.parametrize("name", ENTRY_CHECKS)
def test_bad_entry_is_named(name):
    call, message = ENTRY_CHECKS[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_prob_weights_names_the_first_negative_weight():
    # the first in index order, not the most negative
    with pytest.raises(ValidationError) as err:
        prob_weights([0.75, -0.25, 1.0, -0.5])
    assert str(err.value) == "weights must be nonnegative, weights[1] = -0.25"


def test_sigma_vals_rejects_a_nan_theta():
    # the rule is written as the allowed set, theta >= 0, which NaN fails
    with pytest.raises(ValidationError) as err:
        coefficients.sigma_vals(1.0, 0.5, [0.1, NAN])
    assert str(err.value) == "theta must be nonnegative, thetas[1] = nan"


def _segment():
    return WeightedOneDimSpace("segment", 4.0, np.full(16, math.log(0.25)))


def _rho():
    return np.full(16, 0.25)


FLOOR = math.pi * math.sqrt(2.0)  # CounterexampleParams' D floor at K = N = -1
VE = ValidationError
DIM = InvalidDimension

# every scalar rule of a public function, at NaN and at the edge of the
# allowed set, with its error class and message "<name> <rule>, got <value>"
SCALAR_CHECKS = {
    "s_kappa-kappa-nan": (lambda: coefficients.s_kappa(NAN, 1.0), VE,
                          "kappa must be finite, got nan"),
    # a NaN kappa fails kappa > 0 and would read as a branch without end
    "omega-kappa-nan": (lambda: coefficients.omega(NAN), VE,
                        "kappa must be finite, got nan"),
    "s_kappa-theta-nan": (lambda: coefficients.s_kappa(1.0, NAN), VE,
                          "theta must be nonnegative, got nan"),
    "s_kappa-theta-edge": (lambda: coefficients.s_kappa(1.0, -0.5), VE,
                           "theta must be nonnegative, got -0.5"),
    "s_kappa-theta-inf-sinh": (lambda: coefficients.s_kappa(-1.0, INF), VE,
                               "theta must be finite, got inf"),
    "s_kappa-theta-inf-sin": (lambda: coefficients.s_kappa(1.0, INF), VE,
                              "theta must be finite, got inf"),
    "sigma-theta-nan": (lambda: coefficients.sigma(1.0, 0.5, NAN), VE,
                        "theta must be nonnegative, thetas[0] = nan"),
    "sigma-t-nan": (lambda: coefficients.sigma(1.0, NAN, 0.1), VE,
                    "t must lie in [0,1], got nan"),
    "sigma-t-edge": (lambda: coefficients.sigma(1.0, 1.5, 0.1), VE,
                     "t must lie in [0,1], got 1.5"),
    "sigma_range_sup-theta_lo-nan": (
        lambda: coefficients.sigma_range_sup(1.0, 0.5, NAN, 1.0), VE,
        "theta_lo must be nonnegative, got nan"),
    "sigma_range_sup-theta_lo-edge": (
        lambda: coefficients.sigma_range_sup(1.0, 0.5, -0.5, 1.0), VE,
        "theta_lo must be nonnegative, got -0.5"),
    "sigma_range_sup-theta_hi-nan": (
        lambda: coefficients.sigma_range_sup(1.0, 0.5, 0.0, NAN), VE,
        "theta_hi must be at least theta_lo, got nan"),
    "sigma_range_sup-theta_hi-edge": (
        lambda: coefficients.sigma_range_sup(1.0, 0.5, 1.0, 0.5), VE,
        "theta_hi must be at least theta_lo, got 0.5"),
    "sigma_range_sup-t-nan": (
        lambda: coefficients.sigma_range_sup(1.0, NAN, 0.0, 10.0), VE,
        "t must lie in [0,1], got nan"),
    "tau-N-nan": (lambda: coefficients.tau(1.0, NAN, 0.5, 0.1), DIM,
                  "N must be negative, got nan"),
    "tau-N-edge": (lambda: coefficients.tau(1.0, 0.0, 0.5, 0.1), DIM,
                   "N must be negative, got 0.0"),
    "tau-theta-nan": (lambda: coefficients.tau(1.0, -1.0, 0.5, NAN), VE,
                      "theta must be nonnegative, thetas[0] = nan"),
    "tau_vals-t-nan": (lambda: coefficients.tau_vals(1.0, -1.0, NAN, [0.1]),
                       VE, "t must lie in [0,1], got nan"),
    "tau_sup-theta_max-nan": (
        lambda: coefficients.tau_sup(-1.0, -1.0, 0.5, NAN), VE,
        "theta_max must be nonnegative, got nan"),
    "tau_sup-theta_max-edge": (
        lambda: coefficients.tau_sup(-1.0, -1.0, 0.5, -0.5), VE,
        "theta_max must be nonnegative, got -0.5"),
    "tau_sup-N-edge": (lambda: coefficients.tau_sup(1.0, 0.0, 0.5, 1.0), DIM,
                       "N must be negative, got 0.0"),
    "tau_sup-t-nan": (lambda: coefficients.tau_sup(1.0, -1.0, NAN, 1.0), VE,
                      "t must lie in [0,1], got nan"),
    "f_softabs-a-nan": (lambda: coefficients.f_softabs(NAN, 1.0), VE,
                        "softness parameter must be positive, got nan"),
    "f_softabs-a-edge": (lambda: coefficients.f_softabs(0.0, 1.0), VE,
                         "softness parameter must be positive, got 0.0"),
    "f_softabs-a-inf": (lambda: coefficients.f_softabs(INF, [0.0, 1.0]), VE,
                        "softness parameter must be finite, got inf"),
    "partial_diameter_1d-alpha-nan": (
        lambda: concentration.partial_diameter_1d([0.0, 1.0], [0.5, 0.5], NAN),
        VE, "alpha must be a number, got nan"),
    "partial_diameter-alpha-nan": (
        lambda: concentration.partial_diameter(square_space(), [0.25] * 4, NAN),
        VE, "alpha must lie in [0,1], got nan"),
    "partial_diameter-alpha-edge": (
        lambda: concentration.partial_diameter(square_space(), [0.25] * 4, 1.5),
        VE, "alpha must lie in [0,1], got 1.5"),
    "separation-k0-nan": (
        lambda: concentration.separation(square_space(), [0.25] * 4, NAN, 0.3),
        VE, "k0 must be positive, got nan"),
    "separation-k1-edge": (
        lambda: concentration.separation(square_space(), [0.25] * 4, 0.3, 0.0),
        VE, "k1 must be positive, got 0.0"),
    "obsdiam_sandwich-kappa-nan": (
        lambda: concentration.obsdiam_sandwich(square_space(), [0.25] * 4, NAN),
        VE, "kappa must be positive, got nan"),
    "obsdiam_sandwich-kappa-edge": (
        lambda: concentration.obsdiam_sandwich(square_space(), [0.25] * 4, 0.0),
        VE, "kappa must be positive, got 0.0"),
    "cd_separation_bound-K-edge": (
        lambda: concentration.cd_separation_bound(0.0, -1.0, 0.1, 0.1), VE,
        "K must be positive, got 0.0"),
    "cd_separation_bound-N-nan": (
        lambda: concentration.cd_separation_bound(1.0, NAN, 0.1, 0.1), DIM,
        "N must be negative, got nan"),
    "cd_separation_bound-N-edge": (
        lambda: concentration.cd_separation_bound(1.0, 0.5, 0.1, 0.1), DIM,
        "N must be negative, got 0.5"),
    "cd_separation_bound-k0-nan": (
        lambda: concentration.cd_separation_bound(1.0, -1.0, NAN, 0.1), VE,
        "k0 must lie in (0,1), got nan"),
    "cd_separation_bound-k1-edge": (
        lambda: concentration.cd_separation_bound(1.0, -1.0, 0.1, 1.0), VE,
        "k1 must lie in (0,1), got 1.0"),
    "cd_separation_bound-sum-edge": (
        lambda: concentration.cd_separation_bound(1.0, -1.0, 0.5, 0.5), VE,
        "k0 + k1 must be below 1, got 1.0"),
    "cdstar_separation_bound-N-nan": (
        lambda: concentration.cdstar_separation_bound(1.0, NAN, 0.1, 0.1), DIM,
        "N must be negative, got nan"),
    "cdstar_separation_bound-k0-edge": (
        lambda: concentration.cdstar_separation_bound(1.0, -1.0, 0.0, 0.1), VE,
        "k0 must lie in (0,1), got 0.0"),
    "cd_obsdiam_bound-kappa-nan": (
        lambda: concentration.cd_obsdiam_bound(1.0, -1.0, NAN), VE,
        "kappa must lie in (0,1], got nan"),
    "cd_obsdiam_bound-kappa-edge": (
        lambda: concentration.cd_obsdiam_bound(1.0, -1.0, 0.0), VE,
        "kappa must lie in (0,1], got 0.0"),
    "cdstar_obsdiam_bound-K-nan": (
        lambda: concentration.cdstar_obsdiam_bound(NAN, -1.0, 0.5), VE,
        "K must be finite, got nan"),
    "cdstar_obsdiam_bound-kappa-edge": (
        lambda: concentration.cdstar_obsdiam_bound(1.0, -1.0, 1.5), VE,
        "kappa must lie in (0,1], got 1.5"),
    "levy_bound_sequence-kappa-nan": (
        lambda: concentration.levy_bound_sequence([1.0], [-1.0], NAN, "CD"),
        VE, "kappa must lie in (0,1), got nan"),
    "levy_bound_sequence-kappa-edge": (
        lambda: concentration.levy_bound_sequence([1.0], [-1.0], 1.0, "CD"),
        VE, "kappa must lie in (0,1), got 1.0"),
    "levy_bound_sequence-mode": (
        lambda: concentration.levy_bound_sequence([1.0], [-1.0], 0.1, "cd"),
        VE, "mode must be CD or CDstar, got 'cd'"),
    "levy_bound_sequence-N": (
        lambda: concentration.levy_bound_sequence([1.0], [NAN], 0.1, "CD"),
        DIM, "dimension parameters must be negative, N_list[0] = nan"),
    "renyi_entropy-nprime-nan": (
        lambda: curvature.renyi_entropy([0.5, 0.5], [0.5, 0.5], NAN), DIM,
        "N' must be negative, got nan"),
    "renyi_entropy-nprime-edge": (
        lambda: curvature.renyi_entropy([0.5, 0.5], [0.5, 0.5], 0.0), DIM,
        "N' must be negative, got 0.0"),
    "cd_rhs-nprime-edge": (
        lambda: curvature.cd_rhs(_segment(), _rho(), _rho(), 1.0, 0.0, 0.5),
        DIM, "N' must be negative, got 0.0"),
    "cd_rhs-t-nan": (
        lambda: curvature.cd_rhs(_segment(), _rho(), _rho(), 1.0, -1.0, NAN),
        VE, "t must lie in [0,1], got nan"),
    "cd_rhs-variant": (
        lambda: curvature.cd_rhs(_segment(), _rho(), _rho(), 1.0, -1.0, 0.5,
                                 "cd"),
        VE, "variant must be CD or CDstar, got 'cd'"),
    "cd_check_1d-N-nan": (
        lambda: curvature.cd_check_1d(_segment(), _rho(), _rho(), 1.0, NAN),
        DIM, "N must be negative, got nan"),
    "cd_check_1d-nprime_grid-nan": (
        lambda: curvature.cd_check_1d(_segment(), _rho(), _rho(), 1.0, -1.0,
                                      nprime_grid=[-0.5, NAN]),
        DIM, "N' must lie in [N, 0), nprime_grid[1] = nan"),
    "cd_check_1d-nprime_grid-edge": (
        lambda: curvature.cd_check_1d(_segment(), _rho(), _rho(), 1.0, -1.0,
                                      nprime_grid=[-0.5, 0.0]),
        DIM, "N' must lie in [N, 0), nprime_grid[1] = 0.0"),
    "bm_check-t-nan": (
        lambda: curvature.bm_check(_segment(), (0.5, 1.0), (2.5, 3.0), NAN,
                                   1.0, -1.0),
        VE, "t must lie in [0,1], got nan"),
    "bm_check-N-edge": (
        lambda: curvature.bm_check(_segment(), (0.5, 1.0), (2.5, 3.0), 0.5,
                                   1.0, 0.0),
        DIM, "N must be negative, got 0.0"),
    "kn_convexity_check-N-edge": (
        lambda: curvature.kn_convexity_check(np.zeros(9), 1.0, 0.0, 0.1), DIM,
        "N must be negative, got 0.0"),
    "kn_convexity_check-h-nan": (
        lambda: curvature.kn_convexity_check(np.zeros(9), 1.0, -1.0, NAN), VE,
        "h must be positive and finite, got nan"),
    "kn_convexity_check-h-edge": (
        lambda: curvature.kn_convexity_check(np.zeros(9), 1.0, -1.0, 0.0), VE,
        "h must be positive and finite, got 0.0"),
    "convexity_order_study-N-nan": (
        lambda: curvature.convexity_order_study(np.cosh, 1.0, NAN, [0.1],
                                                (-1.0, 1.0)),
        DIM, "N must be negative, got nan"),
    "entropy_inequality_suite-n_trials-edge": (
        lambda: curvature.entropy_inequality_suite(square_space(), 0), VE,
        "n_trials must be at least 1, got 0"),
    "volume_growth_probe-C-nan": (
        lambda: curvature.volume_growth_probe(np.zeros_like, NAN, 0.0, [1, 2]),
        VE, "C must be positive, got nan"),
    "volume_growth_probe-C-edge": (
        lambda: curvature.volume_growth_probe(np.zeros_like, 0.0, 0.0, [1, 2]),
        VE, "C must be positive, got 0.0"),
    "volume_growth_probe-C-inf": (
        lambda: curvature.volume_growth_probe(np.zeros_like, INF, 0.0, [1, 2]),
        VE, "C must be finite, got inf"),
    "volume_growth_probe-x0-nan": (
        lambda: curvature.volume_growth_probe(np.zeros_like, 1.0, NAN, [1, 2]),
        VE, "x0 must be finite, got nan"),
    "CounterexampleParams-K-edge": (
        lambda: experiments.CounterexampleParams(K=0.0), VE,
        "K must be negative, got 0.0"),
    "CounterexampleParams-N-nan": (
        lambda: experiments.CounterexampleParams(N=NAN), VE,
        "N must be finite, got nan"),
    "CounterexampleParams-N-edge": (
        lambda: experiments.CounterexampleParams(N=0.0), DIM,
        "N must be negative, got 0.0"),
    "CounterexampleParams-D-nan": (
        lambda: experiments.CounterexampleParams(D=NAN), VE,
        "D must be finite, got nan"),
    "CounterexampleParams-D-edge": (
        lambda: experiments.CounterexampleParams(D=1.0), VE,
        f"D must be at least the admissible floor {FLOOR}, got 1.0"),
    "CounterexampleParams-m-edge": (
        lambda: experiments.CounterexampleParams(m=255), VE,
        "m must be at least 256, got 255"),
    "CounterexampleParams-eps-nan": (
        lambda: experiments.CounterexampleParams(eps=NAN), VE,
        "eps must lie in (0, D/2), got nan"),
    "CounterexampleParams-eps-edge": (
        lambda: experiments.CounterexampleParams(eps=FLOOR / 2.0), VE,
        f"eps must lie in (0, D/2), got {FLOOR / 2.0}"),
    "two_point_midpoint_gap-D-nan": (
        lambda: experiments.two_point_midpoint_gap(NAN), VE,
        "D must be nonnegative, got nan"),
    "two_point_midpoint_gap-D-edge": (
        lambda: experiments.two_point_midpoint_gap(-0.5), VE,
        "D must be nonnegative, got -0.5"),
    "cosh_family-K-edge": (
        lambda: experiments.cosh_family(0.0, -1.0, 1.0, 2.0, 64), VE,
        "K must be positive, got 0.0"),
    "cosh_family-N-nan": (
        lambda: experiments.cosh_family(1.0, NAN, 1.0, 2.0, 64), DIM,
        "N must be negative, got nan"),
    "cosh_family-lam-nan": (
        lambda: experiments.cosh_family(1.0, -1.0, NAN, 2.0, 64), VE,
        "lam must be positive and finite, got nan"),
    "cosh_family-L-edge": (
        lambda: experiments.cosh_family(1.0, -1.0, 1.0, 0.0, 64), VE,
        "L must be positive and finite, got 0.0"),
    "cosh_family-m-edge": (
        lambda: experiments.cosh_family(1.0, -1.0, 1.0, 2.0, 0), VE,
        "grid size m must be at least 1, got 0"),
    "sinh_example_report-K-edge": (
        lambda: experiments.sinh_example_report(0.0, -1.0), VE,
        "K must be positive, got 0.0"),
    "sinh_example_report-N-nan": (
        lambda: experiments.sinh_example_report(1.0, NAN), DIM,
        "N must be negative, got nan"),
    "verify_separation_bounds-slack-nan": (
        lambda: experiments.verify_separation_bounds(
            K_list=(1.0,), kappas=(0.2,), m=64, slack=NAN), VE,
        "slack must be finite and nonnegative, got nan"),
    "verify_separation_bounds-slack-edge": (
        lambda: experiments.verify_separation_bounds(
            K_list=(1.0,), kappas=(0.2,), m=64, slack=-0.01), VE,
        "slack must be finite and nonnegative, got -0.01"),
    "WeightedOneDimSpace-kind": (
        lambda: WeightedOneDimSpace("line", 1.0, [0.0]), VE,
        "kind must be segment or circle, got 'line'"),
    "WeightedOneDimSpace-total_length-nan": (
        lambda: WeightedOneDimSpace("segment", NAN, [0.0]), VE,
        "total_length must be positive, got nan"),
    "from_density-m-edge": (
        lambda: WeightedOneDimSpace.from_density("segment", 1.0, 0, [1.0]), VE,
        "m must be at least 1, got 0"),
    "WeightedOneDimSpace-total_length-edge": (
        lambda: WeightedOneDimSpace("segment", 0.0, [0.0]), VE,
        "total_length must be positive, got 0.0"),
    "interval_mass-lo-nan": (
        lambda: transport.interval_mass(_segment(), NAN, 1.0), VE,
        "lo must be a number, got nan"),
    "interval_mass-hi-nan": (
        lambda: transport.interval_mass(_segment(), 0.0, NAN), VE,
        "hi must be a number, got nan"),
    "interpolate-t-nan": (
        lambda: transport.MonotonePlan.build(_segment(), _rho(), _rho())
        .interpolate(NAN), VE, "t must lie in [0,1], got nan"),
}


@pytest.mark.parametrize("name", SCALAR_CHECKS)
def test_bad_scalar_is_named(name):
    call, error, message = SCALAR_CHECKS[name]
    with pytest.raises(ValidationError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_condition_uniform_two_points():
    mu = np.full(4, 0.25)
    out = condition_measure(mu, [0, 1])
    assert np.allclose(out, [0.5, 0.5, 0.0, 0.0])


def test_condition_weighted_tail():
    out = condition_measure(np.array([0.1, 0.2, 0.3, 0.4]), [2, 3])
    assert np.allclose(out, [0.0, 0.0, 3.0 / 7.0, 4.0 / 7.0], atol=1e-15)


def test_condition_whole_space_is_identity():
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(condition_measure(mu, range(4)), mu)


def test_condition_zero_mass_raises():
    with pytest.raises(ZeroMassSet):
        condition_measure(np.array([0.5, 0.5, 0.0]), [2])


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_condition_idempotent(n, seed):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(n))
    subset = rng.random(n) < 0.6
    if not mu[subset].sum() > 0:
        subset[int(np.argmax(mu))] = True
    once = condition_measure(mu, subset)
    twice = condition_measure(once, subset)
    assert np.allclose(once, twice, atol=1e-14)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_identity_and_constant():
    mu = np.array([0.3, 0.7])
    assert np.allclose(pushforward(mu, [0, 1]), mu)
    assert np.allclose(pushforward(mu, [0, 0], 1), [1.0])


def test_pushforward_merge_two_points():
    out = pushforward(np.array([0.5, 0.5]), [0, 0], 1)
    assert out.shape == (1,) and out[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6))
def test_pushforward_preserves_mass_exactly(n, seed):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(n))
    f = rng.integers(0, max(1, n - 1), size=n)
    out = pushforward(mu, f, n)
    assert abs(out.sum() - mu.sum()) <= 1e-15


# ---------------------------------------------------------------------------
# partition averaging


def test_partition_average_singletons_is_identity():
    nu = np.array([0.1, 0.2, 0.3, 0.4])
    mu = np.full(4, 0.25)
    out = partition_average(nu, [[i] for i in range(4)], mu)
    assert np.allclose(out, nu)


def test_partition_average_whole_space_uniform():
    nu = np.array([0.7, 0.1, 0.1, 0.1])
    mu = np.full(4, 0.25)
    assert np.allclose(partition_average(nu, [range(4)], mu), mu)


def test_partition_average_two_blocks():
    nu = np.array([1.0, 0.0, 0.0, 0.0])
    mu = np.full(4, 0.25)
    out = partition_average(nu, [[0, 1], [2, 3]], mu)
    assert np.allclose(out, [0.5, 0.5, 0.0, 0.0])


def test_partition_average_is_projection():
    rng = np.random.default_rng(7)
    nu = rng.dirichlet(np.ones(6))
    mu = rng.dirichlet(np.ones(6))
    blocks = [[0, 1], [2], [3, 4, 5]]
    once = partition_average(nu, blocks, mu)
    twice = partition_average(once, blocks, mu)
    assert np.allclose(once, twice, atol=1e-14)


def test_partition_average_zero_mass_block():
    nu = np.array([0.0, 1.0])
    mu = np.array([1.0, 0.0])
    with pytest.raises(ZeroMassSet):
        partition_average(nu, [[0], [1]], mu)


def test_partition_average_stray_mass_rejected():
    nu = np.array([0.5, 0.5])
    mu = np.array([0.5, 0.5])
    with pytest.raises(ValidationError):
        partition_average(nu, [[0]], mu)


# ---------------------------------------------------------------------------
# diameters and space validation


def test_subset_diameter_conventions():
    s = square_space()
    assert subset_diameter(s.dist, []) == 0.0
    assert subset_diameter(s.dist, [2]) == 0.0
    d = np.array([[0.0, 3.0], [3.0, 0.0]])
    assert subset_diameter(d, [0, 1]) == 3.0


def test_space_rejects_asymmetry():
    dist = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError, match="asymmetric"):
        FiniteMmSpace((0, 1), dist, [0.5, 0.5])


def test_space_rejects_triangle_violation_naming_triple():
    dist = np.array([
        [0.0, 1.0, 5.0],
        [1.0, 0.0, 1.0],
        [5.0, 1.0, 0.0],
    ])
    with pytest.raises(ValidationError, match=r"\(i,j,k\)"):
        FiniteMmSpace((0, 1, 2), dist, [1 / 3] * 3)


def passes(check, *args) -> bool:
    try:
        check(*args)
    except ValidationError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, 0.05, 0.2, 0.25, 0.3, 1.0, 4.0]),
       st.sampled_from([0.5, 1.0, 10.0, 1e4]))
def test_line_certificate_is_sound(n, seed, noise, scale):
    # a line metric perturbed by symmetric noise of up to noise * atol on
    # each entry; whenever the O(n^2) certificate accepts, the full triangle
    # scan passes too, so the validator accepts exactly what the scan does
    rng = np.random.default_rng(seed)
    x = rng.random(n) * scale
    dist = np.abs(x[:, None] - x[None, :])
    atol = STRUCTURAL_TOL * max(float(dist.max()), 1.0)
    bump = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * noise * atol, 1)
    dist = np.maximum(dist + bump + bump.T, 0.0)
    atol = STRUCTURAL_TOL * max(float(dist.max()), 1.0)
    scan_ok = passes(_triangle_scan, dist, atol)
    if line_embedding(dist) is not None:
        assert scan_ok
    assert passes(_validate_distance_matrix, dist) == scan_ok


def test_line_certificate_accepts_exact_line_metrics():
    x = np.random.default_rng(3).random(64) * 7.0
    dist = np.abs(x[:, None] - x[None, :])
    emb = line_embedding(dist)
    assert emb is not None
    assert np.allclose(np.abs(emb[:, None] - emb[None, :]), dist)
    assert concentration.line_embedding is line_embedding


def test_line_metric_with_raised_entry_names_triple():
    x = np.sort(np.random.default_rng(5).random(64))
    dist = np.abs(x[:, None] - x[None, :])
    dist[3, 40] = dist[40, 3] = dist[3, 40] + 1e-6
    with pytest.raises(ValidationError,
                       match=r"triangle inequality violated for \(i,j,k\) = "
                             r"\((3,40|40,3),\d+\)"):
        FiniteMmSpace(tuple(range(64)), dist, np.full(64, 1 / 64))


def parent_validate(dist):
    """The validator before the line certificate ran first: diagonal,
    asymmetry, then the certificate or the triangle scan; it returns
    nothing."""
    if not np.all(np.isfinite(dist)):
        raise ValidationError("distance matrix must be finite")
    if np.any(dist < 0):
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        raise ValidationError(f"negative distance at ({i},{j}): {dist[i, j]}")
    atol = STRUCTURAL_TOL * max(float(dist.max(initial=0.0)), 1.0)
    if np.any(np.abs(np.diagonal(dist)) > atol):
        i = int(np.argmax(np.abs(np.diagonal(dist))))
        raise ValidationError(f"nonzero diagonal at ({i},{i}): {dist[i, i]}")
    asym = np.abs(dist - dist.T)
    if asym.max(initial=0.0) > atol:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise ValidationError(
            f"asymmetric distances at ({i},{j}): {dist[i, j]} vs {dist[j, i]}")
    if line_embedding(dist) is None:
        _triangle_scan(dist, atol)


def validation_message(check, dist):
    try:
        check(dist)
    except ValidationError as e:
        return str(e)
    return None


LINE3 = np.abs(np.subtract.outer([0.0, 1.0, 3.0], [0.0, 1.0, 3.0]))


def line3_with(*entries):
    d = LINE3.copy()
    for i, j, v in entries:
        d[i, j] = v
    return d


@pytest.mark.parametrize("dist, message", [
    (line3_with((1, 1, 0.5)), "nonzero diagonal at (1,1): 0.5"),
    (np.array([[0.25]]), "nonzero diagonal at (0,0): 0.25"),
    (line3_with((0, 2, 3.5)), "asymmetric distances at (0,2): 3.5 vs 3.0"),
    (line3_with((0, 2, 4.5), (2, 0, 4.5)),
     "triangle inequality violated for (i,j,k) = (0,2,1): "
     "d(0,2) = 4.5 > 1.0 + 2.0"),
    (line3_with((1, 2, -0.25), (2, 1, -0.25)), "negative distance at (1,2): -0.25"),
    (line3_with((2, 0, math.nan)), "distance matrix must be finite"),
    (line3_with((2, 0, math.inf)), "distance matrix must be finite"),
])
def test_validation_messages_unchanged(dist, message):
    # the certificate now runs before the asymmetry check; every rejected
    # input still gets the message it got before
    assert validation_message(parent_validate, dist) == message
    n = dist.shape[0]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        FiniteMmSpace(tuple(range(n)), dist, np.full(n, 1.0 / n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0]),
       st.sampled_from(["diagonal", "upper", "both", "one"]))
def test_validation_message_matches_parent_order(n, seed, noise, where):
    # a line metric with noise of up to noise * atol on its diagonal, on
    # its upper triangle only (asymmetric), on both triangles, or on one
    # entry: the validator accepts what the old order accepted and names
    # the same entry when it rejects
    rng = np.random.default_rng(seed)
    x = np.round(rng.random(n) * 8.0) / 4.0
    dist = np.abs(x[:, None] - x[None, :])
    atol = STRUCTURAL_TOL * max(float(dist.max()), 1.0)
    bump = rng.uniform(0.0, 1.0, (n, n)) * noise * atol
    if where == "diagonal":
        dist += np.diag(np.diagonal(bump))
    elif where == "upper":
        dist += np.triu(bump, 1)
    elif where == "both":
        dist += bump
    else:
        dist[rng.integers(n), rng.integers(n)] += bump[0, 0]
    want = validation_message(parent_validate, dist)
    assert validation_message(_validate_distance_matrix, dist) == want


def test_space_keeps_its_line_coordinates():
    x = np.random.default_rng(11).random(40) * 3.0
    s = FiniteMmSpace.from_points(x, np.full(40, 1 / 40))
    assert s.line_coords.tobytes() == line_embedding(s.dist).tobytes()
    assert not s.line_coords.flags.writeable
    with pytest.raises(ValueError):
        s.line_coords[0] = 1.0
    assert FiniteMmSpace((0,), [[0.0]], [1.0]).line_coords.tobytes() == \
        np.zeros(1).tobytes()
    cube = FiniteMmSpace.from_points(
        [[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)], np.full(8, 1 / 8))
    assert line_embedding(cube.dist) is None and cube.line_coords is None


def test_line_coordinates_take_no_part_in_eq_or_repr():
    s = FiniteMmSpace.from_points([0.0, 1.0, 3.0], [0.25, 0.25, 0.5])
    t = copy.copy(s)
    object.__setattr__(t, "line_coords", None)
    assert s.line_coords is not None
    assert s == t and repr(s) == repr(t)
    assert "line_coords" not in repr(s)
    f = {f.name: f for f in dataclasses.fields(FiniteMmSpace)}["line_coords"]
    assert not f.init and not f.repr and not f.compare


def test_discretized_segment_validates_in_quadratic_time():
    # the cubic scan takes about 0.7 s at 512 cells and would take over a
    # minute here
    space = WeightedOneDimSpace.from_density(
        "segment", 3.0, 2048, lambda x: np.full_like(x, 1.0 / 3.0))
    t0 = time.perf_counter()
    fin = discretize(space)
    assert time.perf_counter() - t0 < 5.0
    assert fin.n == 2048


def test_space_rejects_bad_weights():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError):
        FiniteMmSpace((0, 1), dist, [0.7, 0.7])


def test_space_json_round_trip():
    s = square_space((0.1, 0.2, 0.3, 0.4))
    t = FiniteMmSpace.from_json(s.to_json())
    assert np.allclose(t.dist, s.dist)
    assert np.allclose(t.weights, s.weights)
    assert t.point_ids == s.point_ids


def test_space_json_missing_key():
    with pytest.raises(ValidationError, match="weights"):
        FiniteMmSpace.from_json('{"points": [0], "dist": [[0.0]]}')


SPACE_DOC = {"points": [0, 1], "dist": [[0.0, 1.0], [1.0, 0.0]],
             "weights": [0.5, 0.5]}


@pytest.mark.parametrize("doc, message", [
    ({**SPACE_DOC, "dist": [[0, 1], [1]]}, "field 'dist': setting an array"),
    ({**SPACE_DOC, "dist": "ab"}, "field 'dist': could not convert"),
    ({**SPACE_DOC, "dist": [[0, {}], [1, 0]]}, "field 'dist'"),
    ({**SPACE_DOC, "points": 5}, "field 'points'"),
    ({**SPACE_DOC, "weights": "ab"}, "field 'weights'"),
    ({**SPACE_DOC, "weights": [0.5, [0.5]]}, "field 'weights'"),
    (list(SPACE_DOC), "must be a JSON object, got list"),
    (5, "must be a JSON object, got int"),
])
def test_space_json_rejects_malformed_fields(doc, message):
    # each was a bare ValueError or TypeError, which the CLI took for a
    # failed check
    assert FiniteMmSpace.from_json(json.dumps(SPACE_DOC)).n == 2
    with pytest.raises(ValidationError, match=re.escape(message)):
        FiniteMmSpace.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# threshold search


@pytest.mark.parametrize("n", range(1, 65))
def test_first_feasible_every_threshold(n):
    for t in range(n):
        asked = []

        def pred(k):
            asked.append(k)
            return k >= t

        assert first_feasible(pred, n) == t
        assert asked[0] == 0
        assert n - 1 not in asked[1:]
        assert len(asked) <= 1 + (math.ceil(math.log2(n - 1)) if n > 1 else 0)
