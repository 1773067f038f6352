"""Population-optimal policy: closed forms against quadrature, Monte Carlo,
and the exhaustive per-atom grid oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selverify import (
    Action,
    BetaDist,
    GridDist,
    MixtureDist,
    PointMass,
    PolicyKind,
    PopulationSpec,
    UniformDist,
    brute_force_value,
    discretize,
    effective_weights,
    optimal_policy,
    pointwise_cost,
    value,
    value_three_region,
)


def uniform_spec(lam1=2.0, lam2=2.0):
    return PopulationSpec(
        score_dist=UniformDist(), lambda1=lam1, lambda2=lam2,
        alpha0=0.5, alpha1=0.5, calibrated=True,
    )


class TestOptimalPolicy:
    def test_balanced_three_region(self):
        pol = optimal_policy(4.0, 4.0)
        assert pol.kind is PolicyKind.THREE_REGION
        assert pol.reject_below == 0.25
        assert pol.accept_above == 0.75

    def test_degenerate_weights(self):
        assert optimal_policy(0.0, 3.0).kind is PolicyKind.ALWAYS_ACCEPT
        assert optimal_policy(3.0, 0.0).kind is PolicyKind.ALWAYS_REJECT
        assert optimal_policy(0.0, 0.0).kind is PolicyKind.ALWAYS_ACCEPT

    def test_two_region_when_band_is_empty(self):
        # 1/b > 1 - 1/a: escalation never beats both unilateral actions
        pol = optimal_policy(1.5, 1.5)
        assert pol.kind is PolicyKind.TWO_REGION
        assert pol.crossover == pytest.approx(0.5)

    def test_band_boundary_is_inclusive(self):
        pol = optimal_policy(4.0, 4.0)
        assert pol.action_at(0.25) is Action.STRONG_VERIFY
        assert pol.action_at(0.75) is Action.STRONG_VERIFY
        assert pol.action_at(0.24) is Action.REJECT
        assert pol.action_at(0.76) is Action.ACCEPT

    def test_two_region_crossover_accepts(self):
        pol = optimal_policy(1.5, 1.5)
        assert pol.action_at(0.5) is Action.ACCEPT
        assert pol.action_at(0.499) is Action.REJECT

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            optimal_policy(-1.0, 2.0)


class TestPointwiseCost:
    def test_costs(self):
        assert pointwise_cost(0.3, Action.STRONG_VERIFY, 4.0, 4.0) == 1.0
        assert pointwise_cost(0.3, Action.ACCEPT, 4.0, 4.0) == pytest.approx(2.8)
        assert pointwise_cost(0.3, Action.REJECT, 4.0, 4.0) == pytest.approx(1.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            pointwise_cost(1.5, Action.ACCEPT, 1.0, 1.0)
        with pytest.raises(ValueError):
            pointwise_cost(0.5, Action.ACCEPT, -1.0, 1.0)


class TestValue:
    def test_uniform_balanced_case(self):
        # E[min(1, 4(1-W), 4W)] = 0.125 + 0.5 + 0.125 by direct integration
        spec = uniform_spec()
        assert effective_weights(spec) == (4.0, 4.0)
        assert value(spec) == pytest.approx(0.75, abs=1e-9)

    def test_uniform_balanced_case_monte_carlo(self):
        w = np.random.default_rng(7).random(10**6)
        mc = np.minimum(1.0, np.minimum(4.0 * (1.0 - w), 4.0 * w)).mean()
        assert value(uniform_spec()) == pytest.approx(mc, abs=1e-3)

    def test_region_decomposition_matches(self):
        for dist in (UniformDist(), BetaDist(2.0, 5.0), GridDist.uniform(101)):
            spec = PopulationSpec(score_dist=dist, lambda1=3.0, lambda2=2.5,
                                  alpha0=0.4, alpha1=0.6)
            pol = optimal_policy(*effective_weights(spec))
            assert pol.kind is PolicyKind.THREE_REGION
            assert value_three_region(spec, pol) == pytest.approx(
                value(spec), abs=1e-9
            )

    def test_region_decomposition_needs_three_regions(self):
        spec = PopulationSpec(score_dist=UniformDist(), lambda1=0.75,
                              lambda2=0.75, alpha0=0.5, alpha1=0.5)
        pol = optimal_policy(*effective_weights(spec))
        assert pol.kind is PolicyKind.TWO_REGION
        with pytest.raises(ValueError):
            value_three_region(spec, pol)

    def test_value_never_exceeds_escalation_cost(self):
        for lam1, lam2 in ((0.2, 9.0), (5.0, 5.0), (0.0, 2.0), (40.0, 40.0)):
            spec = PopulationSpec(score_dist=BetaDist(2.0, 2.0), lambda1=lam1,
                                  lambda2=lam2, alpha0=0.5, alpha1=0.5)
            v = value(spec)
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_monotone_in_cost_weights(self):
        vals = [
            value(PopulationSpec(score_dist=BetaDist(2.0, 2.0), lambda1=lam,
                                 lambda2=2.0, alpha0=0.5, alpha1=0.5))
            for lam in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_reparametrization_invariance(self):
        # only a = lambda1/alpha0 and b = lambda2/alpha1 matter
        a, b = 4.0, 3.0
        specs = [
            PopulationSpec(score_dist=BetaDist(2.0, 5.0),
                           lambda1=a * a0, lambda2=b * (1.0 - a0),
                           alpha0=a0, alpha1=1.0 - a0)
            for a0 in (0.2, 0.5, 0.8)
        ]
        vals = [value(s) for s in specs]
        assert max(vals) - min(vals) <= 1e-9
        kinds = {optimal_policy(*effective_weights(s)).kind for s in specs}
        assert len(kinds) == 1


class TestBruteForce:
    def test_exact_match_on_grids(self):
        spec = PopulationSpec(score_dist=GridDist.uniform(1001), lambda1=2.0,
                              lambda2=2.0, alpha0=0.5, alpha1=0.5)
        bf, actions = brute_force_value(spec)
        assert bf == value(spec)
        assert len(actions) == 1001

    def test_tie_resolution_prefers_escalation(self):
        # at w=0.25 with a=b=4 the reject and escalate costs are both 1
        spec = PopulationSpec(score_dist=GridDist.uniform(1001), lambda1=2.0,
                              lambda2=2.0, alpha0=0.5, alpha1=0.5)
        _, actions = brute_force_value(spec)
        pts = spec.score_dist.points
        idx = int(np.argmin(np.abs(pts - 0.25)))
        assert pts[idx] == 0.25
        assert actions[idx] is Action.STRONG_VERIFY

    def test_assignment_matches_closed_form_off_ties(self):
        spec = PopulationSpec(score_dist=GridDist.uniform(701), lambda1=3.0,
                              lambda2=1.7, alpha0=0.35, alpha1=0.65)
        a, b = effective_weights(spec)
        pol = optimal_policy(a, b)
        _, actions = brute_force_value(spec)
        for w, act in zip(spec.score_dist.points, actions):
            costs = sorted(
                pointwise_cost(float(w), c, a, b)
                for c in (Action.ACCEPT, Action.REJECT, Action.STRONG_VERIFY)
            )
            if costs[1] - costs[0] <= 1e-12:
                continue
            assert pol.action_at(float(w)) is act

    def test_needs_a_grid(self):
        with pytest.raises(ValueError):
            brute_force_value(uniform_spec())


class TestDiscretize:
    def test_grid_passthrough(self):
        spec = PopulationSpec(score_dist=GridDist.uniform(11), lambda1=1.0,
                              lambda2=1.0, alpha0=0.5, alpha1=0.5)
        assert discretize(spec) is spec

    def test_uniform_cell_masses(self):
        spec = discretize(uniform_spec(), atoms=101)
        g = spec.score_dist
        assert isinstance(g, GridDist)
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)
        # interior cells hold 1/100 of the mass, the end cells half that
        assert np.allclose(g.weights[1:-1], 0.01, atol=1e-12)
        assert g.weights[0] == pytest.approx(0.005, abs=1e-12)
        assert g.weights[-1] == pytest.approx(0.005, abs=1e-12)

    def test_point_mass_lands_in_one_cell(self):
        spec = PopulationSpec(score_dist=PointMass(0.5), lambda1=2.0,
                              lambda2=2.0, alpha0=0.5, alpha1=0.5)
        g = discretize(spec, atoms=101).score_dist
        assert g.weights.max() == pytest.approx(1.0, abs=1e-15)
        assert g.points[int(np.argmax(g.weights))] == 0.5

    def test_grid_value_tracks_continuous_value(self):
        for dist in (UniformDist(), BetaDist(2.0, 5.0),
                     MixtureDist(0.6, BetaDist(9.0, 1.0), BetaDist(2.0, 8.0))):
            spec = PopulationSpec(score_dist=dist, lambda1=3.0, lambda2=2.0,
                                  alpha0=0.4, alpha1=0.6)
            a, b = effective_weights(spec)
            atoms = 1001
            bf, _ = brute_force_value(discretize(spec, atoms))
            tol = max(a, b) / (2.0 * (atoms - 1)) + 1e-9
            assert abs(value(spec) - bf) <= tol

    def test_atoms_validation(self):
        with pytest.raises(ValueError):
            discretize(uniform_spec(), atoms=1)


class TestSpecValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PopulationSpec(score_dist=UniformDist(), lambda1=1.0, lambda2=1.0,
                           alpha0=0.5, alpha1=0.6)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            PopulationSpec(score_dist=UniformDist(), lambda1=-1.0, lambda2=1.0,
                           alpha0=0.5, alpha1=0.5)

    @pytest.mark.parametrize("field, value, message", [
        ("lambda1", True, "lambda1 must be a number >= 0, got True"),
        ("lambda1", "1", "lambda1 must be a number >= 0, got '1'"),
        ("lambda2", -1.0, "lambda2 must be a number >= 0, got -1.0"),
        ("lambda2", float("nan"), "lambda2 must be a number >= 0, got nan"),
        ("calibrated", "yes", "calibrated must be true or false, got 'yes'"),
        ("calibrated", 1, "calibrated must be true or false, got 1"),
    ])
    def test_a_bad_field_is_refused_by_name(self, field, value, message):
        kw = dict(score_dist=UniformDist(), lambda1=1.0, lambda2=1.0, alpha0=0.5, alpha1=0.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            PopulationSpec(**{**kw, field: value})

    def test_calibration_pins_alpha1_to_the_mean(self):
        PopulationSpec(score_dist=UniformDist(), lambda1=1.0, lambda2=1.0,
                       alpha0=0.5, alpha1=0.5, calibrated=True)
        with pytest.raises(ValueError):
            PopulationSpec(score_dist=UniformDist(), lambda1=1.0, lambda2=1.0,
                           alpha0=0.4, alpha1=0.6, calibrated=True)


@settings(max_examples=60, deadline=None)
@given(
    lam1=st.floats(0.0, 6.0),
    lam2=st.floats(0.0, 6.0),
    alpha0=st.floats(0.1, 0.9),
    shape_a=st.floats(0.5, 8.0),
    shape_b=st.floats(0.5, 8.0),
)
def test_grid_oracle_agreement_property(lam1, lam2, alpha0, shape_a, shape_b):
    spec = PopulationSpec(
        score_dist=BetaDist(shape_a, shape_b), lambda1=lam1, lambda2=lam2,
        alpha0=alpha0, alpha1=1.0 - alpha0,
    )
    a, b = effective_weights(spec)
    atoms = 501
    bf, _ = brute_force_value(discretize(spec, atoms))
    tol = max(a, b) / (2.0 * (atoms - 1)) + 1e-9
    assert abs(value(spec) - bf) <= tol
