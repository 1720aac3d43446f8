"""The tick against its previous forms, bit for bit.

`integrate` runs one copy of the rate equations in a loop over the RK4 stage
table, `RotationSegment.eval` works on tuples and the harness draws its
measurement noise in blocks.  `update_contact` reports its own edges and
keeps no anchor pose, one `EstimatorState.fresh` restarts both estimators,
and `perch_wrench` has no rho = 0 branch.  Each test keeps the form it
replaced as its oracle and requires the same floats, bit for bit, or the
same exception, for +-0.0, subnormals, large rates, NaN and +-inf as well
as ordinary values.
"""

import math
import struct
from dataclasses import astuple, dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perchsim import estimation
from perchsim.allocation import Wrench, allocate
from perchsim.control import perch_wrench
from perchsim.geometry import EYE, ZERO3, exp_so3, mat_mul, renormalize, \
    right_jacobian, rot_y
from perchsim.harness import _noise
from perchsim.planner import RotationSegment
from perchsim.scenario import ScenarioConfig
from perchsim.vehicle import ETA_ENGAGED, ETA_OPEN, ContactState, \
    Disturbances, NumericalDivergenceError, VehicleState, WallModel, \
    integrate, update_contact

TAME = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0,
        -1.0)
WILD = (math.nan, math.inf, -math.inf, 1e6, -1e6, 1e154, -1e154, 1e300,
        1.7976931348623157e308)
SEEDS = (0, 1, 5, 41, 123, 2 ** 40 + 7)


def bits(values):
    """Each float's bits, with every NaN as one NaN: which operand's payload
    and sign a NaN result carries depends on whether the interpreter has
    specialised the operation yet, not on the code (and '%.12g' prints
    'nan' for all of them)."""
    return [struct.pack("<d", math.nan if x != x else x) for x in values]


def number(data, wild, lo=-50.0, hi=50.0):
    """A float: a special value or one in [lo, hi], often with a full
    53-bit mantissa, so reordered sums show; any float when wild."""
    if wild:
        return data.draw(st.one_of(st.sampled_from(TAME + WILD), st.floats()))
    return data.draw(st.one_of(
        st.sampled_from(TAME), st.floats(lo, hi),
        st.integers(0, 2 ** 53).map(lambda i: lo + (hi - lo) * i / 2 ** 53)))


def numbers(data, wild, n, lo=-50.0, hi=50.0):
    return tuple(number(data, wild, lo, hi) for _ in range(n))


def outcome(fn, *args):
    """The floats `fn` returns (a state's p, v, R, omega), as bits, or the
    exception it raises."""
    try:
        out = fn(*args)
    except (NumericalDivergenceError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(out, VehicleState):
        out = out.p, out.v, out.R, out.omega
    return bits(x for part in out for x in part)


def derivative(wrench, nearfield_force, dist, params):
    """The rates closure of the previous integrate."""
    (fx, fy, fz), (tx, ty, tz) = wrench.f, wrench.tau
    (nx, ny, nz), (dx, dy, dz) = nearfield_force, dist.delta_f
    (ex, ey, ez), m, g = dist.delta_r, params.m, params.g
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = params.Jb
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = params.Jb_inv

    def rates(R, wx, wy, wz):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
        jx = j00 * wx + j01 * wy + j02 * wz
        jy = j10 * wx + j11 * wy + j12 * wz
        jz = j20 * wx + j21 * wy + j22 * wz
        ux = jy * wz - jz * wy + tx
        uy = jz * wx - jx * wz + ty
        uz = jx * wy - jy * wx + tz
        return ((r00 * fx + r01 * fy + r02 * fz + nx + dx) / m,
                (r10 * fx + r11 * fy + r12 * fz + ny + dy) / m,
                (r20 * fx + r21 * fy + r22 * fz + nz + dz) / m - g,
                i00 * ux + i01 * uy + i02 * uz + ex,
                i10 * ux + i11 * uy + i12 * uz + ey,
                i20 * ux + i21 * uy + i22 * uz + ez)
    return rates


def integrate_unrolled(state, wrench, dist, contact, params, dt):
    """The previous integrate: four unrolled stages through `derivative`."""
    if contact.attached:
        return state
    rates = derivative(wrench, contact.nearfield_force, dist, params)
    R, (v1x, v1y, v1z), (w1x, w1y, w1z) = state.R, state.v, state.omega
    h = 0.5 * dt
    a1x, a1y, a1z, b1x, b1y, b1z = rates(R, w1x, w1y, w1z)
    v2x, v2y, v2z = v1x + h * a1x, v1y + h * a1y, v1z + h * a1z
    w2x, w2y, w2z = w1x + h * b1x, w1y + h * b1y, w1z + h * b1z
    a2x, a2y, a2z, b2x, b2y, b2z = rates(
        mat_mul(R, exp_so3(h * w1x, h * w1y, h * w1z)), w2x, w2y, w2z)
    v3x, v3y, v3z = v1x + h * a2x, v1y + h * a2y, v1z + h * a2z
    w3x, w3y, w3z = w1x + h * b2x, w1y + h * b2y, w1z + h * b2z
    a3x, a3y, a3z, b3x, b3y, b3z = rates(
        mat_mul(R, exp_so3(h * w2x, h * w2y, h * w2z)), w3x, w3y, w3z)
    v4x, v4y, v4z = v1x + dt * a3x, v1y + dt * a3y, v1z + dt * a3z
    w4x, w4y, w4z = w1x + dt * b3x, w1y + dt * b3y, w1z + dt * b3z
    a4x, a4y, a4z, b4x, b4y, b4z = rates(
        mat_mul(R, exp_so3(dt * w3x, dt * w3y, dt * w3z)), w4x, w4y, w4z)

    s, (px, py, pz) = dt / 6.0, state.p
    p_new = (px + s * (v1x + 2.0 * v2x + 2.0 * v3x + v4x),
             py + s * (v1y + 2.0 * v2y + 2.0 * v3y + v4y),
             pz + s * (v1z + 2.0 * v2z + 2.0 * v3z + v4z))
    v_new = (v1x + s * (a1x + 2.0 * a2x + 2.0 * a3x + a4x),
             v1y + s * (a1y + 2.0 * a2y + 2.0 * a3y + a4y),
             v1z + s * (a1z + 2.0 * a2z + 2.0 * a3z + a4z))
    R_new = renormalize(mat_mul(R, exp_so3(
        s * (w1x + 2.0 * w2x + 2.0 * w3x + w4x),
        s * (w1y + 2.0 * w2y + 2.0 * w3y + w4y),
        s * (w1z + 2.0 * w2z + 2.0 * w3z + w4z))))
    w_new = (w1x + s * (b1x + 2.0 * b2x + 2.0 * b3x + b4x),
             w1y + s * (b1y + 2.0 * b2y + 2.0 * b3y + b4y),
             w1z + s * (b1z + 2.0 * b2z + 2.0 * b3z + b4z))

    if not all(map(math.isfinite, p_new + v_new + R_new + w_new)):
        raise NumericalDivergenceError(
            "non-finite state after integration step")
    return VehicleState(p_new, v_new, R_new, w_new)


@settings(max_examples=300)
@given(st.data())
def test_integrate_matches_unrolled_rk4(data):
    # Tame cases are mostly finite, so their bits are compared; wild ones
    # reach overflow, NaN, +-inf and the exceptions exp_so3 and m raise.
    wild = data.draw(st.booleans())
    rate = 1e4 if data.draw(st.booleans()) else 50.0   # large body rates
    # At p = v = 0, p + s * sum is s * sum, so a last-bit change in a sum
    # shows in the result.
    origin = data.draw(st.booleans())
    state = VehicleState(*((ZERO3, ZERO3) if origin else
                           (numbers(data, wild, 3), numbers(data, wild, 3))),
                         numbers(data, wild, 9, -1.0, 1.0),
                         numbers(data, wild, 3, -rate, rate))
    wrench = Wrench(numbers(data, wild, 3), numbers(data, wild, 3))
    dist = Disturbances(numbers(data, wild, 3), numbers(data, wild, 3))
    contact = ContactState(nearfield_force=numbers(data, wild, 3))
    params = SimpleNamespace(
        m=number(data, wild, 0.05, 5.0), g=number(data, wild, 0.0, 20.0),
        Jb=numbers(data, wild, 9, -1.0, 1.0),
        Jb_inv=numbers(data, wild, 9, -1e3, 1e3))
    # A step of order 1 keeps a last-bit change in a rate out of the
    # rounding of x + s * sum.
    dt = number(data, wild, 0.0, 2.0) if data.draw(st.booleans()) \
        else data.draw(st.sampled_from([0.001, 0.004, 1e-6, 0.01]))
    args = (state, wrench, dist, contact, params, dt)
    assert outcome(integrate, *args) == outcome(integrate_unrolled, *args)


def _case(kind):
    if kind == "signed-zeros":
        # Every stage's v and a is -0.0, so are their sums; a 0.0 seed
        # would make them +0.0 and flip the sign of p and v.
        z, m = (-0.0,) * 3, SimpleNamespace(
            m=1.0, g=0.0, Jb=(0.0,) * 9, Jb_inv=(0.0,) * 9)
        return (VehicleState(z, z, EYE, z), Wrench(z, z), Disturbances(z, z),
                ContactState(nearfield_force=z), m, 0.001)
    params = SimpleNamespace(m=1.2, g=9.81, Jb=(0.01, 0.0, 0.0, 0.0, 0.012,
                                                0.0, 0.0, 0.0, 0.02),
                             Jb_inv=(100.0, 0.0, 0.0, 0.0, 1 / 0.012, 0.0,
                                     0.0, 0.0, 50.0))
    tau = (math.nan, 0.0, 0.0) if kind == "nan-torque" else (0.01, -0.02,
                                                             0.005)
    return (VehicleState((0.1, -0.2, 1.3), (0.4, -0.1, 0.2),
                         exp_so3(0.2, -0.3, 0.4), (1.5, -2.0, 0.7)),
            Wrench((0.3, -0.2, 12.0), tau),
            Disturbances((1.5, -0.5, 0.3), (0.2, -0.1, 0.4)),
            ContactState(nearfield_force=(-16.0, 0.0, 0.0)), params, 0.004)


@pytest.mark.parametrize("kind", ["realistic", "signed-zeros", "nan-torque"])
def test_integrate_oracle_fixed_cases(kind):
    """Fixed cases on each side: a realistic step, one whose position and
    velocity sums are -0.0, and a NaN torque that raises
    NumericalDivergenceError."""
    args = _case(kind)
    new = outcome(integrate, *args)
    assert new == outcome(integrate_unrolled, *args)
    if kind == "nan-torque":
        assert new[0] is NumericalDivergenceError
    else:
        assert isinstance(new, list)
    if kind == "signed-zeros":
        assert new[:6] == bits((-0.0,) * 6)


def eval_lists(seg, t):
    """The previous RotationSegment.eval, built with lists and appends."""
    phi, dphi = [], []
    for c1, c2, c3 in seg.coeffs:
        phi.append(t * (c1 + t * (c2 + t * c3)))
        dphi.append(c1 + t * (2.0 * c2 + t * 3.0 * c3))
    return (mat_mul(seg.R0, exp_so3(*phi)),
            right_jacobian(phi, dphi))


@settings(max_examples=300)
@given(st.data())
def test_rotation_eval_matches_list_form(data):
    wild = data.draw(st.booleans())
    seg = RotationSegment(numbers(data, wild, 9, -1.0, 1.0),
                          tuple(numbers(data, wild, 3, -5.0, 5.0)
                                for _ in range(3)))
    t = number(data, wild, 0.0, 5.0)
    assert outcome(seg.eval, t) == outcome(eval_lists, seg, t)


@pytest.mark.parametrize("seed", SEEDS)
def test_block_draw_is_the_per_tick_stream(seed):
    block = np.random.default_rng(seed).standard_normal((64, 6))
    rng = np.random.default_rng(seed)
    ticks = np.array([rng.standard_normal(6) for _ in range(64)])
    assert block.tobytes() == ticks.tobytes()
    for sd in (0.002, 0.01, 0.0, 1e-300, 3.0):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        z = b.standard_normal(3).tolist()
        assert bits(a.normal(0.0, sd, 3).tolist()) \
            == bits([0.0 + sd * x for x in z])


@pytest.mark.parametrize("n_ticks", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("sd_p, sd_v", [(0.002, 0.01), (0.003, 0.0)])
def test_noise_blocks_match_per_tick_draws(seed, n_ticks, sd_p, sd_v):
    # sd = 0.0 makes sd * z a -0.0 for z < 0, which 0.0 + turns into 0.0.
    got = list(_noise(np.random.default_rng(seed), sd_p, sd_v, n_ticks))
    rng = np.random.default_rng(seed)
    want = [rng.normal(0.0, sd_p, 3).tolist() + rng.normal(0.0, sd_v, 3)
            .tolist() for _ in range(n_ticks)]
    assert len(got) == n_ticks
    assert [bits(row) for row in got] == [bits(row) for row in want]


@dataclass
class AnchoredContact:
    """The previous ContactState, which kept the pose it attached at."""
    attached: bool = False
    gap: float = float("inf")
    lambda_true: float = 0.0
    anchor_p: tuple = None
    anchor_R: tuple = None
    nearfield_force: tuple = ZERO3


def update_contact_anchored(state, act, applied_world_force, contact, wall,
                            params):
    """The previous update_contact, which returned no edge."""
    gap = wall.gap_of(state)
    nx, ny, nz = wall.normal
    if contact.attached:
        eta_hold = 1.0 if act.eta >= ETA_ENGAGED else act.eta
        if act.eta <= ETA_OPEN:
            return AnchoredContact(False, gap, 0.0)
        fx, fy, fz = applied_world_force
        pull = nx * fx + ny * fy + nz * (fz - params.m * params.g)
        if pull > wall.F_mag * eta_hold:
            return AnchoredContact(False, gap, 0.0)
        return AnchoredContact(True, 0.0, wall.F_mag * eta_hold - pull,
                               anchor_p=contact.anchor_p,
                               anchor_R=contact.anchor_R)
    if act.eta >= ETA_ENGAGED and gap <= wall.eps_attach:
        return AnchoredContact(True, 0.0, wall.F_mag,
                               anchor_p=state.p, anchor_R=state.R)
    out = AnchoredContact(False, gap, 0.0)
    if act.eta >= ETA_ENGAGED and 0.0 < gap < wall.d_mag:
        s = -wall.F_mag * (1.0 - gap / wall.d_mag)
        out.nearfield_force = (s * nx, s * ny, s * nz)
    return out


def harness_edge(contact, new_contact, act):
    """The previous harness's contact event, derived from the two states."""
    if new_contact.attached and not contact.attached:
        return "attach"
    if contact.attached and not new_contact.attached:
        return "release" if act.eta <= ETA_OPEN else "forcible-detach"
    return None


def contact_bits(c):
    return [c.attached] + bits((c.gap, c.lambda_true) + c.nearfield_force)


@settings(max_examples=400)
@given(st.data())
def test_contact_edges_match_anchored_form(data):
    wild = data.draw(st.booleans())
    eta = data.draw(st.one_of(st.sampled_from(
        (ETA_OPEN, ETA_ENGAGED, 0.0, -0.0, 1.0, 0.5, math.nan)),
        st.floats(-0.1, 1.1)))
    state = VehicleState(numbers(data, wild, 3, 0.9, 1.1), ZERO3,
                         numbers(data, wild, 9, -1.0, 1.0), ZERO3)
    wall = WallModel(point=(1.0, 0.0, 1.0),
                     normal=data.draw(st.sampled_from(
                         [(-1.0, 0.0, 0.0), (-0.8, 0.5, 0.2), (0.0, 1.0, 0.0)])),
                     F_mag=number(data, False, 1.0, 60.0),
                     d_mag=number(data, False, 0.01, 0.2),
                     eps_attach=number(data, False, 1e-4, 0.05),
                     c_m=numbers(data, False, 3, -0.1, 0.1))
    attached = data.draw(st.booleans())
    # While attached, integrate returns the state unchanged, so the anchor
    # the previous harness kept is the state's own pose.
    old_before = AnchoredContact(
        attached, 0.0 if attached else wall.gap_of(state), 0.0,
        state.p if attached else None, state.R if attached else None)
    before = ContactState(*astuple(old_before)[:3])
    act = SimpleNamespace(eta=eta)
    params = SimpleNamespace(m=number(data, False, 0.1, 5.0),
                             g=number(data, False, 0.0, 20.0))
    applied = numbers(data, wild, 3, -80.0, 80.0)

    new, edge = update_contact(state, act, applied, before, wall, params)
    old = update_contact_anchored(state, act, applied, old_before, wall,
                                  params)
    assert contact_bits(new) == contact_bits(old)
    assert edge == harness_edge(old_before, old, act)
    if old.attached:
        assert (old.anchor_p, old.anchor_R) == (state.p, state.R)


def unfreeze(est, state, params):
    """The previous estimation.unfreeze."""
    if not est.frozen:
        return est
    p_m0 = tuple([mv - d / est.K_e
                  for mv, d in zip(momentum(state, params), est.delta_hat)])
    return estimation.EstimatorState(est.delta_hat, ZERO3, p_m0, est.K_e,
                                     False)


def rebase(est, state, params):
    """The previous estimation.rebase."""
    return estimation.EstimatorState(ZERO3, ZERO3, momentum(state, params),
                                     est.K_e, est.frozen)


def momentum(state, params):
    """The previous estimation._momentum."""
    m = params.m
    return tuple([m * v for v in state.v])


def estimator_bits(est):
    return bits(est.delta_hat + est.accumulator + est.p_m0 + (est.K_e,)) \
        + [est.frozen]


@settings(max_examples=400)
@given(st.data())
def test_fresh_matches_unfreeze_and_rebase(data):
    wild = data.draw(st.booleans())
    # build() requires a finite, positive gain and mass.
    K_e = data.draw(st.one_of(st.sampled_from((5e-324, 1e-300, 20.0, 1e300)),
                              st.floats(1e-6, 1e6)))
    params = SimpleNamespace(m=data.draw(st.one_of(
        st.sampled_from((5e-324, 1.65, 1e300)), st.floats(0.01, 10.0))))
    state = VehicleState(ZERO3, numbers(data, wild, 3), EYE, ZERO3)
    est = estimation.EstimatorState(numbers(data, wild, 3),
                                    numbers(data, wild, 3),
                                    numbers(data, wild, 3), K_e)

    resumed = estimation.EstimatorState.fresh(state, params, K_e,
                                              est.delta_hat)
    assert estimator_bits(resumed) \
        == estimator_bits(unfreeze(estimation.freeze(est), state, params))
    restarted = estimation.EstimatorState.fresh(state, params, K_e)
    assert estimator_bits(restarted) == estimator_bits(
        rebase(est, state, params))


SIGNED_ROTATIONS = (EYE, rot_y(math.pi / 2), rot_y(-math.pi / 2),
                    rot_y(math.pi), (-0.0, 0.0, -1.0, 0.0, -1.0, -0.0,
                                     -1.0, -0.0, 0.0))


@settings(max_examples=300)
@given(st.data())
def test_zero_rho_perch_wrench_allocates_as_zero(data):
    # A rho = 0 wrench is signed zeros; allocate's hypot makes them +0.0
    # and holds each tilt, as for Wrench.zero().
    params = ScenarioConfig().build()[0]
    R = data.draw(st.one_of(
        st.sampled_from(SIGNED_ROTATIONS),
        st.tuples(*[st.one_of(st.sampled_from((0.0, -0.0)),
                              st.floats(-1.0, 1.0))] * 9)))
    prev = tuple(data.draw(st.floats(allow_nan=True)) for _ in range(4))
    T_max = data.draw(st.floats(1e-300, 1e300))
    state = VehicleState((0.5, 0.0, 1.2), ZERO3, R, ZERO3)

    w = perch_wrench(0.0, state, params)
    got = allocate(w, params.rotors, T_max, prev)
    want = allocate(Wrench.zero(), params.rotors, T_max, prev)
    assert bits(got.thrust + got.tilt) == bits(want.thrust + want.tilt)
    assert got.saturated == want.saturated
    assert [struct.pack("<d", x) for x in got.tilt] \
        == [struct.pack("<d", x) for x in prev]
