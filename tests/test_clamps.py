"""The tick's clamps, written as comparisons, against their min/max forms.

A builtin min/max keeps its first argument unless a later one compares
strictly past it, so the argument order decides which float a NaN, a signed
zero or a tie returns.  Each test keeps the old min/max expression as its
oracle and requires the stage to return the same float, bit for bit, for
NaN, +-inf, +-0.0, exact limits and random floats, with any limits.
"""

import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perchsim import geometry
from perchsim.allocation import allocate
from perchsim.control import nominal_wrench
from perchsim.planner import hold
from perchsim.scenario import ScenarioConfig
from perchsim.vehicle import at_rest, step_actuators
from test_oracles import bits as bits_one_nan

PARAMS, _ = ScenarioConfig().build()
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0)


def bits(values):
    return [struct.pack("<d", x) for x in values]


def value(data, *limits):
    """A float to clamp: a special value, a limit (or its negation), or any
    float."""
    edges = SPECIAL + limits + tuple(-x for x in limits)
    return data.draw(st.one_of(st.sampled_from(edges), st.floats()))


@settings(max_examples=400)
@given(st.data())
def test_step_actuators_clamps(data):
    T_max, rate, t_ps = (value(data) for _ in range(3))
    # dt = tau = 1 and zero offsets make the clamped values the drawn ones
    # (but -0.0 for thrust); otherwise every input is drawn too.
    dt, tau = data.draw(st.sampled_from([(1.0, 1.0), None])) \
        or (value(data), value(data))
    assume(tau != 0.0 and t_ps != 0.0)   # the stage divides by both
    step = dt / t_ps
    thrust = [value(data, T_max) for _ in range(4)]
    tilt = [value(data, rate * dt) for _ in range(4)]
    eta_d = value(data, step, 1.0)
    start = data.draw(st.sampled_from([0.0, -0.0, None]))
    if start is None:
        start = (tuple(value(data) for _ in range(4)),
                 tuple(value(data) for _ in range(4)), value(data))
    else:
        start = ((-0.0,) * 4, (0.0,) * 4, start)
    act, cmd = start, (tuple(thrust), tuple(tilt), False)
    params = replace(PARAMS, T_max=T_max, tau_rotor=tau, tilt_rate_max=rate,
                     t_ps=t_ps)

    out_thrust, out_tilt, out_eta = step_actuators(act, cmd, eta_d, dt,
                                                   params)

    (act_thrust, act_tilt, act_eta), k, dmax = start, dt / tau, rate * dt
    old_thrust = [min(max(a + (c - a) * k, 0.0), T_max)
                  for a, c in zip(act_thrust, thrust)]
    old_tilt = [a + min(max(c - a, -dmax), dmax)
                for a, c in zip(act_tilt, tilt)]
    eta = act_eta + min(step, max(-step, eta_d - act_eta))
    old_eta = min(1.0, max(0.0, eta))
    assert bits(out_thrust) == bits(old_thrust)
    assert bits(out_tilt) == bits(old_tilt)
    assert bits([out_eta]) == bits([old_eta])


@settings(max_examples=300)
@given(st.data())
def test_nominal_wrench_integral_clamp(data):
    clamp = value(data)
    # integ = -0.0 and dt = 1 make i + e dt exactly the drawn e.
    e_R = tuple(value(data, clamp) for _ in range(3))
    integ, dt = data.draw(st.sampled_from([((-0.0,) * 3, 1.0), None])) \
        or (tuple(value(data, clamp) for _ in range(3)), value(data))
    cfg = replace(ScenarioConfig(), integral_clamp=clamp)
    state = at_rest((0.0, 0.0, 1.0))
    sp = hold((0.1, 0.0, 1.0), geometry.EYE)

    _, acc = nominal_wrench(state, sp, e_R, cfg, integ, PARAMS, dt)

    old = [min(max(i + e * dt, -clamp), clamp) for i, e in zip(integ, e_R)]
    # i + e * dt makes its own NaN, whose sign depends on the interpreter's
    # specialisation of the addition, so any NaN matches here.
    assert bits_one_nan(acc) == bits_one_nan(old)


@settings(max_examples=300)
@given(st.data())
def test_allocate_thrust_clamp_and_flags(data):
    rotors = PARAMS.rotors
    w = (tuple(value(data) for _ in range(3)),
         tuple(value(data) for _ in range(3)))
    # The unclamped thrusts are the hypotenuses of the min-norm solution.
    (f0, f1, f2), (t0, t1, t2) = w
    raw = [math.hypot(*[a * f0 + b * f1 + c * f2 + d * t0 + e * t1 + g * t2
                        for a, b, c, d, e, g in rows])
           for rows in rotors.pinv_rows]
    T_max = value(data, *raw)

    thrust, _, saturated = allocate(w, rotors, T_max, (0.0,) * 4)

    assert bits(thrust) == bits([min(T, T_max) for T in raw])
    assert saturated is any([T > T_max for T in raw])


def _acos_argument(R):
    """The float log_so3 hands to math.acos, seen through a stand-in."""
    seen = []
    spy = SimpleNamespace(**{name: getattr(math, name) for name in dir(math)
                             if not name.startswith("_")})
    spy.acos = lambda x: seen.append(x) or math.acos(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "math", spy)
        try:
            geometry.log_so3(R)
        except (ArithmeticError, ValueError):
            pass                  # off SO(3) the near-pi branch may raise
    return seen[0]


@settings(max_examples=300)
@given(st.data())
def test_log_so3_cosine_clamp(data):
    # A diagonal of 3, 0, 0 or -1, 0, 0 puts the cosine exactly on a limit.
    diag = [value(data, 3.0) for _ in range(3)]
    rest = [value(data) for _ in range(6)]
    R = (diag[0], rest[0], rest[1], rest[2], diag[1], rest[3], rest[4],
         rest[5], diag[2])
    c = 0.5 * (R[0] + R[4] + R[8] - 1.0)
    assert bits([_acos_argument(R)]) == bits([min(1.0, max(-1.0, c))])


@settings(max_examples=300)
@given(st.data())
def test_pitch_clamp(data):
    R = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -value(data, 1.0), 0.0, 1.0)
    old = math.asin(min(1.0, max(-1.0, -R[6])))
    assert bits([geometry.pitch_of(R)]) == bits([old])
