"""One integer rule: every whole number the library takes goes through ``_numerics.whole_number``."""

import math
import re

import pytest

from ringwave import (
    BandoFtl,
    Fleet,
    LinearTrio,
    Perturbation,
    PopulationSpec,
    SeededRandomZeroSum,
    SimConfig,
    SingleVehicleKick,
    SinusoidalMode,
    VelocityPreference,
    min_unstable_size,
)
from ringwave._numerics import whole_number

T_A = LinearTrio(alpha=0.5, beta=2.0, gamma=1.0)
T_B = LinearTrio(alpha=2.0, beta=2.0, gamma=1.0)
MODEL = BandoFtl(a=1.0, b=1.0, pref=VelocityPreference(9.72, 4.5, 2.23))
KICK = Perturbation(0.01, SingleVehicleKick())

# field name as the refusal gives it, a build from one value, and what the build holds of it
TAKERS = {
    "PopulationSpec": ("count", lambda v: PopulationSpec(1, MODEL, v), lambda p: p.count),
    "Fleet": ("counts[1]", lambda v: Fleet([T_A, T_B], [3, v]), lambda f: f.counts[1]),
    "Fleet.from_rates": ("n", lambda v: Fleet.from_rates([T_A, T_B], [0.5, 0.5], v), lambda f: sum(f.counts)),
    # all of T_B, unstable from 10 vehicles on, so n_max 12 answers 10
    "min_unstable_size": ("n_max", lambda v: min_unstable_size([T_A, T_B], [0.0, 1.0], v), lambda n: n),
    "SinusoidalMode": ("mode", SinusoidalMode, lambda k: k.mode),
    "SeededRandomZeroSum": ("seed", SeededRandomZeroSum, lambda k: k.seed),
    "SimConfig": ("record_every", lambda v: SimConfig(1.0, KICK, record_every=v), lambda c: c.record_every),
}
NO_WHOLE_NUMBERS = [2.5, math.nan, math.inf, 10**400, "3"]


@pytest.mark.parametrize("value", NO_WHOLE_NUMBERS, ids=["2.5", "nan", "inf", "10**400", "str"])
@pytest.mark.parametrize("taker", list(TAKERS))
def test_each_taker_refuses_what_is_no_whole_number_by_name(taker, value):
    field, build, _ = TAKERS[taker]
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be a finite whole number.*, got {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("taker", list(TAKERS))
def test_each_taker_holds_a_whole_float_as_its_int(taker):
    _, build, held = TAKERS[taker]
    value = held(build(12.0))
    assert value == held(build(12)) == (10 if taker == "min_unstable_size" else 12) and type(value) is int


@pytest.mark.parametrize(
    "value, least, want",
    [(3, None, 3), (3.0, 3, 3), (-4.0, None, -4), (2**60 + 1, 0, 2**60 + 1)],
)
def test_whole_number_returns_the_int(value, least, want):
    got = whole_number(value, "x", least)
    assert got == want and type(got) is int


@pytest.mark.parametrize("value", [None, "3", 3j, [3], -math.inf, 1])
def test_whole_number_refuses_anything_else_with_a_value_error(value):
    with pytest.raises(ValueError, match=r"^x must be a finite whole number >= 2, got "):
        whole_number(value, "x", least=2)
