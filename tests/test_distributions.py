"""Score distribution oracles: closed forms, quadrature, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selverify import (
    BetaDist,
    GridDist,
    MixtureDist,
    PointMass,
    UniformDist,
    dist_from_dict,
)


class TestUniform:
    def test_moments(self):
        d = UniformDist()
        assert d.mean() == 0.5
        assert abs(d.expect(lambda w: w) - 0.5) < 1e-12
        assert abs(d.expect(lambda w: w * w) - 1.0 / 3.0) < 1e-12

    def test_partial_moments(self):
        d = UniformDist()
        # int_0^0.3 t dt and int_0.6^1 (1 - t) dt by hand
        assert abs(d.mean_below(0.3) - 0.045) < 1e-12
        assert abs(d.comean_above(0.6) - 0.08) < 1e-12
        assert d.prob_between(0.2, 0.5) == pytest.approx(0.3, abs=1e-12)
        assert d.prob_between(0.5, 0.2) == 0.0

    def test_cdf_clamps(self):
        d = UniformDist()
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(2.0) == 1.0
        assert d.cdf(0.25) == 0.25

    def test_edge_partial_moments(self):
        d = UniformDist()
        assert d.mean_below(0.0) == 0.0
        assert d.comean_above(1.0) == 0.0


class TestPointMass:
    def test_strict_inequalities_at_the_atom(self):
        d = PointMass(0.4)
        assert d.mean_below(0.4) == 0.0
        assert d.mean_below(0.4 + 1e-9) == 0.4
        assert d.comean_above(0.4) == 0.0
        assert d.comean_above(0.4 - 1e-9) == pytest.approx(0.6)
        assert d.prob_between(0.4, 0.4) == 1.0
        assert d.cdf(0.4) == 1.0
        assert d.cdf(0.4 - 1e-9) == 0.0

    def test_expect_is_evaluation(self):
        d = PointMass(0.25)
        assert d.expect(lambda w: w * 2.0) == 0.5

    def test_sampling_is_constant(self):
        d = PointMass(0.7)
        out = d.sample(np.random.default_rng(0), 5)
        assert np.all(out == 0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            PointMass(1.5)
        with pytest.raises(ValueError):
            PointMass(-0.1)
        for v in (True, "0.9", None):
            with pytest.raises(ValueError, match=f"point mass value must be a number in \\[0, 1\\], got {v!r}"):
                PointMass(v)
        assert PointMass(np.float64(0.5)).value == 0.5


class TestBeta:
    def test_mean(self):
        assert BetaDist(2.0, 5.0).mean() == pytest.approx(2.0 / 7.0, abs=1e-15)
        assert BetaDist(9.0, 1.0).mean() == 0.9

    def test_density_normalizes(self):
        for a, b in ((2.0, 5.0), (9.0, 1.0), (0.5, 0.5)):
            assert BetaDist(a, b).expect(lambda w: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_cdf_matches_quadrature(self):
        d = BetaDist(2.0, 5.0)
        for x in (0.1, 0.3, 0.7):
            via_quad = d.expect(lambda w, x=x: 1.0 if w <= x else 0.0, breakpoints=(x,))
            assert d.cdf(x) == pytest.approx(via_quad, abs=1e-9)

    def test_partial_moment_identity(self):
        # E[(1-W) 1{W>x}] = Pr(W>x) - (E W - E[W 1{W<x}]) for continuous laws
        for a, b in ((2.0, 5.0), (9.0, 1.0)):
            d = BetaDist(a, b)
            for x in (0.2, 0.5, 0.8):
                lhs = d.comean_above(x)
                rhs = (1.0 - d.cdf(x)) - (d.mean() - d.mean_below(x))
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BetaDist(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaDist(2.0, -1.0)
        # a bool was taken as 1 and echoed as true, a string failed to compare
        with pytest.raises(ValueError, match="beta shape a must be a number > 0, got True"):
            BetaDist(True, 2.0)
        with pytest.raises(ValueError, match="beta shape b must be a number > 0, got '9'"):
            BetaDist(2.0, "9")


class TestMixture:
    def test_linearity(self):
        d = MixtureDist(0.3, PointMass(0.2), UniformDist())
        assert d.mean() == pytest.approx(0.3 * 0.2 + 0.7 * 0.5, abs=1e-12)
        assert d.cdf(0.5) == pytest.approx(0.3 * 1.0 + 0.7 * 0.5, abs=1e-12)
        assert d.prob_between(0.0, 0.1) == pytest.approx(0.7 * 0.1, abs=1e-12)

    def test_sampling_order_is_canonical(self):
        # mask first, then all first-component draws, then second-component:
        # the fixed consumption order is what block replay relies on
        d = MixtureDist(0.4, BetaDist(9.0, 1.0), BetaDist(2.0, 5.0))
        got = d.sample(np.random.default_rng(123), 1000)
        rng = np.random.default_rng(123)
        mask = rng.random(1000) < 0.4
        manual = np.empty(1000)
        manual[mask] = rng.beta(9.0, 1.0, int(mask.sum()))
        manual[~mask] = rng.beta(2.0, 5.0, 1000 - int(mask.sum()))
        assert np.array_equal(got, manual)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureDist(1.5, UniformDist(), UniformDist())
        with pytest.raises(ValueError, match="mixture weight must be a number in"):
            MixtureDist(False, UniformDist(), UniformDist())


class TestGrid:
    def test_uniform_grid_layout(self):
        g = GridDist.uniform(5)
        assert np.array_equal(g.points, np.linspace(0.0, 1.0, 5))
        assert np.allclose(g.weights, 0.2)
        assert g.mean() == pytest.approx(0.5, abs=1e-15)

    def test_exact_partial_moments(self):
        g = GridDist.uniform(5)
        # atoms at 0, .25, .5, .75, 1 with weight .2 each; strict cuts
        assert g.mean_below(0.5) == pytest.approx(0.2 * 0.25, abs=1e-15)
        assert g.comean_above(0.5) == pytest.approx(0.2 * 0.25, abs=1e-15)
        assert g.prob_between(0.25, 0.75) == pytest.approx(0.6, abs=1e-15)
        assert g.cdf(0.5) == pytest.approx(0.6, abs=1e-15)
        assert g.expect(lambda w: w * w) == pytest.approx(0.375, abs=1e-15)

    def test_single_atom_sits_at_half(self):
        g = GridDist([1.0])
        assert g.points.tolist() == [0.5]
        assert g.mean() == 0.5

    def test_equality_is_by_weights(self):
        assert GridDist.uniform(5) == GridDist.uniform(5)
        assert GridDist.uniform(5) != GridDist.uniform(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDist([])
        with pytest.raises(ValueError):
            GridDist([0.5, -0.1, 0.6])
        with pytest.raises(ValueError):
            GridDist([0.5, 0.6])
        with pytest.raises(ValueError):
            GridDist.uniform(0)
        with pytest.raises(ValueError, match=r"grid weights\[1\] must be a number, got True"):
            GridDist([0.0, True])
        with pytest.raises(ValueError, match=r"grid weights\[0\] must be a number, got '1'"):
            GridDist(["1"])

    def test_sampling_respects_weights(self):
        g = GridDist([0.0, 1.0, 0.0])
        out = g.sample(np.random.default_rng(0), 100)
        assert np.all(out == 0.5)


@pytest.mark.parametrize(
    "dist",
    [
        UniformDist(),
        PointMass(0.3),
        BetaDist(2.0, 5.0),
        MixtureDist(0.9, BetaDist(9.0, 1.0), BetaDist(3.3, 6.7)),
        GridDist([0.25, 0.5, 0.25]),
    ],
)
def test_dict_round_trip(dist):
    assert dist_from_dict(dist.to_dict()) == dist


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        dist_from_dict({"kind": "cauchy"})


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.5, 10.0),
    b=st.floats(0.5, 10.0),
    x=st.floats(0.05, 0.95),
)
def test_beta_partial_moments_consistent(a, b, x):
    d = BetaDist(a, b)
    total = d.mean_below(x) + (d.mean() - d.mean_below(x))
    assert total == pytest.approx(d.mean(), abs=1e-9)
    assert d.comean_above(x) == pytest.approx(
        (1.0 - d.cdf(x)) - (d.mean() - d.mean_below(x)), abs=1e-7
    )
    assert 0.0 <= d.cdf(x) <= 1.0


@pytest.mark.parametrize(
    "dist",
    [
        UniformDist(),
        PointMass(1),
        BetaDist(2.0, 5.0),
        # shapes below 1 take numpy's other beta algorithm
        BetaDist(0.5, 0.3),
        MixtureDist(0.4, BetaDist(0.7, 2.0), MixtureDist(0.3, PointMass(0.2), UniformDist())),
        GridDist([0.1, 0.2, 0.3, 0.4]),
    ],
)
def test_scalar_draws_equal_one_element_draws(dist):
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    scalars = [dist.sample(a) for _ in range(300)]
    singles = [dist.sample(b, 1)[0] for _ in range(300)]
    assert {type(x) for x in scalars} == {float}
    assert np.array(scalars).tobytes() == np.array(singles, np.float64).tobytes()
    assert a.bit_generator.state == b.bit_generator.state
