"""The fuzz generators: argument checks before any draw, and their Fraction cost."""

import random
from fractions import Fraction

import pytest

from bchkit import families


@pytest.mark.parametrize("draw", [
    lambda rng: families.random_element(rng, 0),
    lambda rng: families.random_case1(rng, 0),
    lambda rng: families.random_rank_one(rng, 1),
    lambda rng: families.random_rank_one(rng, 1, nilpotent=False),
    lambda rng: families.random_rank_one(rng, 2),  # the coin may pick the nilpotent branch
    lambda rng: families.random_rank_one(rng, 2, nilpotent=True),
    lambda rng: families.random_derived_abelian(rng, levers=-1, core=3),
    lambda rng: families.random_derived_abelian(rng, levers=2, core=-1),
], ids=["element_0", "case1_0", "rank_one_1", "rank_one_1_not_nilpotent", "rank_one_2",
        "rank_one_2_nilpotent", "derived_abelian_levers_-1", "derived_abelian_core_-1"])
def test_dimension_too_small_rejected_before_any_draw(draw):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="dim"):
        draw(rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("sup, error", [
    (Fraction(-1, 2), ValueError),
    (0, ValueError),
    (0.5, TypeError),  # not exact: as_fraction takes no float
], ids=["negative", "zero", "float"])
def test_bad_sup_rejected_before_any_draw(sup, error):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(error):
        families.random_element(rng, 3, sup)
    assert rng.getstate() == state


@pytest.mark.parametrize("sup", [Fraction(1, 4), 1, "3/7"])
def test_element_peak_is_sup(sup):
    rng = random.Random(5)
    for dim in (1, 4, 9):
        x = families.random_element(rng, dim, sup)
        assert max(abs(c) for c in x.coords) == Fraction(sup)
        assert all(type(c) is Fraction for c in x.coords)


@pytest.mark.parametrize("dim", [1, 5, 21])
def test_element_builds_one_fraction_per_coordinate(fraction_builds, dim):
    rng = random.Random(dim)
    families.random_element(rng, dim)
    assert len(fraction_builds) == dim
