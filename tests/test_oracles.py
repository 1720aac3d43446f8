"""The tick against its previous forms, bit for bit.

`integrate` runs one copy of the rate equations in a loop over the RK4 stage
table, `rotation_at` works on tuples, `quintic` reads plain coefficient
tuples where a translation segment record did, and the harness draws its
measurement noise in blocks.  The inertia is three principal moments, not a
3x3 matrix, and `allocate` solves each rotor from its own pair of rows.  `update_contact` reports its own edges and
keeps no anchor pose, one `estimation.fresh` restarts both estimators,
and `perch_wrench` has no rho = 0 branch.  `min_accel_rotation` ends every
segment at rest instead of taking an end rate, and both supervisor machines
are edge tables run by one `transition`, and `compute_metrics` folds the log
a block at a time where it read whole-log arrays.  Each test keeps the form it
replaced as its oracle and requires the same floats, bit for bit, or the
same exception, for +-0.0, subnormals, large rates, NaN and +-inf as well
as ordinary values.
The principal-moment forms drop terms 0.0 * w, which can only flip the sign
of an exact zero, so there a zero of either sign matches.
"""

import itertools
import math
import struct
from dataclasses import astuple, dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perchsim import estimation
from perchsim.allocation import THRUST_EPS, RotorGeometry, allocate
from perchsim.control import nominal_wrench, perch_wrench
from perchsim.geometry import EYE, ZERO3, exp_so3, log_so3, mat_mul, \
    mat_t_mul, mat_t_vec, mat_vec, renormalize, right_jacobian, rot_y
from perchsim.harness import SimResult, _noise
from perchsim.metrics import _COL, _RECORD, Metrics, MetricsFold, \
    compute_metrics, settle_index
from perchsim.planner import min_accel_rotation, quintic, rotation_at
from perchsim.scenario import ScenarioConfig
from perchsim.supervisor import FOUR_MODE, TWO_MODE, Mode, SupervisorState, \
    transition
from perchsim.vehicle import ETA_ENGAGED, ETA_OPEN, ContactState, \
    NumericalDivergenceError, VehicleParams, WallModel, integrate, \
    update_contact
from so3 import right_jacobian_inv

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
    return bits(x for part in out for x in part)


def derivative(wrench, nearfield_force, dist, params):
    """The rates closure of the previous integrate."""
    (fx, fy, fz), (tx, ty, tz) = wrench
    (nx, ny, nz), ((dx, dy, dz), (ex, ey, ez)) = nearfield_force, dist
    m, g = params.m, params.g
    (jx, jy, jz), (ix, iy, iz) = params.J, params.J_inv

    def rates(R, wx, wy, wz):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
        lx, ly, lz = jx * wx, jy * wy, jz * wz
        ux = ly * wz - lz * wy + tx
        uy = lz * wx - lx * wz + ty
        uz = lx * wy - ly * wx + tz
        return ((r00 * fx + r01 * fy + r02 * fz + nx + dx) / m,
                (r10 * fx + r11 * fy + r12 * fz + ny + dy) / m,
                (r20 * fx + r21 * fy + r22 * fz + nz + dz) / m - g,
                ix * ux + ex, iy * uy + ey, iz * uz + ez)
    return rates


def integrate_unrolled(state, wrench, dist, contact, params, dt):
    """The previous integrate: four unrolled stages through `derivative`."""
    if contact.attached:
        return state
    rates = derivative(wrench, contact.nearfield_force, dist, params)
    (px, py, pz), (v1x, v1y, v1z), R, (w1x, w1y, w1z) = state
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

    s = dt / 6.0
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
    return p_new, v_new, R_new, w_new


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
    state = (*((ZERO3, ZERO3) if origin else
               (numbers(data, wild, 3), numbers(data, wild, 3))),
             numbers(data, wild, 9, -1.0, 1.0),
             numbers(data, wild, 3, -rate, rate))
    wrench = numbers(data, wild, 3), numbers(data, wild, 3)
    dist = numbers(data, wild, 3), numbers(data, wild, 3)
    contact = ContactState(nearfield_force=numbers(data, wild, 3))
    params = SimpleNamespace(
        m=number(data, wild, 0.05, 5.0), g=number(data, wild, 0.0, 20.0),
        J=numbers(data, wild, 3, -1.0, 1.0),
        J_inv=numbers(data, wild, 3, -1e3, 1e3))
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
            m=1.0, g=0.0, J=(0.0,) * 3, J_inv=(0.0,) * 3)
        return ((z, z, EYE, z), (z, z), (z, z),
                ContactState(nearfield_force=z), m, 0.001)
    params = SimpleNamespace(m=1.2, g=9.81, J=(0.01, 0.012, 0.02),
                             J_inv=(100.0, 1 / 0.012, 50.0))
    tau = (math.nan, 0.0, 0.0) if kind == "nan-torque" else (0.01, -0.02,
                                                             0.005)
    return (((0.1, -0.2, 1.3), (0.4, -0.1, 0.2), exp_so3(0.2, -0.3, 0.4),
             (1.5, -2.0, 0.7)),
            ((0.3, -0.2, 12.0), tau),
            ((1.5, -0.5, 0.3), (0.2, -0.1, 0.4)),
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


def integrate_full_inertia(state, wrench, dist, contact, params, dt):
    """The previous integrate, which took the inertia and its inverse as
    row-major 9-tuples `Jb` and `Jb_inv`."""
    if contact.attached:
        return state
    (fx, fy, fz), (tx, ty, tz) = wrench
    (nx, ny, nz), ((dx, dy, dz), (ex, ey, ez)) = contact.nearfield_force, dist
    m, g = params.m, params.g
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = params.Jb
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = params.Jb_inv
    (px, py, pz), (v1x, v1y, v1z), R, (w1x, w1y, w1z) = state
    r, vx, vy, vz, wx, wy, wz = R, v1x, v1y, v1z, w1x, w1y, w1z
    svx = svy = svz = sax = say = saz = -0.0
    swx = swy = swz = sbx = sby = sbz = -0.0
    h = 0.5 * dt
    for weight, c in ((1.0, h), (2.0, h), (2.0, dt), (1.0, None)):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
        jx = j00 * wx + j01 * wy + j02 * wz
        jy = j10 * wx + j11 * wy + j12 * wz
        jz = j20 * wx + j21 * wy + j22 * wz
        ux = jy * wz - jz * wy + tx
        uy = jz * wx - jx * wz + ty
        uz = jx * wy - jy * wx + tz
        ax = (r00 * fx + r01 * fy + r02 * fz + nx + dx) / m
        ay = (r10 * fx + r11 * fy + r12 * fz + ny + dy) / m
        az = (r20 * fx + r21 * fy + r22 * fz + nz + dz) / m - g
        bx = i00 * ux + i01 * uy + i02 * uz + ex
        by = i10 * ux + i11 * uy + i12 * uz + ey
        bz = i20 * ux + i21 * uy + i22 * uz + ez
        svx, svy, svz = svx + weight * vx, svy + weight * vy, svz + weight * vz
        sax, say, saz = sax + weight * ax, say + weight * ay, saz + weight * az
        swx, swy, swz = swx + weight * wx, swy + weight * wy, swz + weight * wz
        sbx, sby, sbz = sbx + weight * bx, sby + weight * by, sbz + weight * bz
        if c is None:
            break
        r = mat_mul(R, exp_so3(c * wx, c * wy, c * wz))
        vx, vy, vz = v1x + c * ax, v1y + c * ay, v1z + c * az
        wx, wy, wz = w1x + c * bx, w1y + c * by, w1z + c * bz

    s = dt / 6.0
    p_new = (px + s * svx, py + s * svy, pz + s * svz)
    v_new = (v1x + s * sax, v1y + s * say, v1z + s * saz)
    R_new = renormalize(mat_mul(R, exp_so3(s * swx, s * swy, s * swz)))
    w_new = (w1x + s * sbx, w1y + s * sby, w1z + s * sbz)

    if not all(map(math.isfinite, p_new + v_new + R_new + w_new)):
        raise NumericalDivergenceError(
            "non-finite state after integration step")
    return p_new, v_new, R_new, w_new


def nominal_wrench_full_inertia(state, sp, e_R, cfg, integ, params, dt):
    """The previous nominal_wrench, whose torque was Jb times the
    commanded angular acceleration."""
    K_tp, K_td, g, m = cfg.k_tp, cfg.k_td, params.g, params.m
    (px, py, pz), (vx, vy, vz), R, (wx, wy, wz) = state
    (dpx, dpy, dpz), (dvx, dvy, dvz), (ax, ay, az), R_d, w_d = sp
    ux, uy, uz = mat_t_vec(R, (
        K_tp * (dpx - px) + K_td * (dvx - vx) + ax,
        K_tp * (dpy - py) + K_td * (dvy - vy) + ay,
        g + K_tp * (dpz - pz) + K_td * (dvz - vz) + az))
    (ex, ey, ez), (ix, iy, iz) = e_R, integ
    wdx, wdy, wdz = mat_t_vec(R, mat_vec(R_d, w_d))
    lo, hi = -cfg.integral_clamp, cfg.integral_clamp
    ix, iy, iz = ix + ex * dt, iy + ey * dt, iz + ez * dt
    ix, iy, iz = (lo if lo > ix else ix, lo if lo > iy else iy,
                  lo if lo > iz else iz)
    ix, iy, iz = (hi if hi < ix else ix, hi if hi < iy else iy,
                  hi if hi < iz else iz)
    K_rp, K_rd, K_ri = cfg.k_rp, cfg.k_rd, cfg.k_ri
    tau = mat_vec(params.Jb, (K_rp * ex + K_rd * (wdx - wx) + K_ri * ix,
                              K_rp * ey + K_rd * (wdy - wy) + K_ri * iy,
                              K_rp * ez + K_rd * (wdz - wz) + K_ri * iz))
    return ((m * ux, m * uy, m * uz), tau), (ix, iy, iz)


ZERO_BITS = bits((0.0, -0.0))


def zero_blind(result):
    """An outcome with each exact zero's bits read as +0.0's."""
    if isinstance(result, tuple):                # an exception
        return result
    return [ZERO_BITS[0] if b in ZERO_BITS else b for b in result]


def principal_params(data):
    """Both inertia forms of one body: moments J with reciprocals J_inv, and
    the previous 9-tuples of np.diag(J) and its numpy inverse."""
    J = tuple(data.draw(st.one_of(st.sampled_from((0.008, 0.014, 1.0)),
                                  st.floats(1e-4, 10.0))) for _ in range(3))
    return SimpleNamespace(
        m=number(data, False, 0.05, 5.0), g=number(data, False, 0.0, 20.0),
        J=J, J_inv=(1.0 / J[0], 1.0 / J[1], 1.0 / J[2]),
        Jb=tuple(np.diag(J).ravel().tolist()),
        Jb_inv=tuple(np.linalg.inv(np.diag(J)).ravel().tolist()))


@settings(max_examples=150)
@given(st.data())
def test_principal_integrate_matches_full_inertia(data):
    # Finite inputs whose intermediates stay finite: an inf rate would make
    # the dropped 0.0 * w terms NaN in the full form only.
    rate = 1e4 if data.draw(st.booleans()) else 50.0
    origin = data.draw(st.booleans())
    state = (*((ZERO3, ZERO3) if origin else
               (numbers(data, False, 3), numbers(data, False, 3))),
             numbers(data, False, 9, -1.0, 1.0),
             numbers(data, False, 3, -rate, rate))
    wrench = numbers(data, False, 3), numbers(data, False, 3)
    dist = numbers(data, False, 3), numbers(data, False, 3)
    contact = ContactState(nearfield_force=numbers(data, False, 3))
    dt = number(data, False, 0.0, 2.0) if data.draw(st.booleans()) \
        else data.draw(st.sampled_from([0.001, 0.004, 1e-6, 0.01]))
    args = (state, wrench, dist, contact, principal_params(data), dt)
    assert zero_blind(outcome(integrate, *args)) \
        == zero_blind(outcome(integrate_full_inertia, *args))


def wrench_and_integral(fn):
    """`fn`, a nominal_wrench, with its outputs as float tuples."""
    def run(*args):
        (f, tau), integ = fn(*args)
        return f, tau, integ
    return run


@settings(max_examples=100)
@given(st.data())
def test_principal_torque_matches_full_inertia(data):
    rate = 1e4 if data.draw(st.booleans()) else 50.0
    state = (numbers(data, False, 3), numbers(data, False, 3),
             numbers(data, False, 9, -1.0, 1.0),
             numbers(data, False, 3, -rate, rate))
    sp = (*(numbers(data, False, 3) for _ in range(3)),
          numbers(data, False, 9, -1.0, 1.0),
                  numbers(data, False, 3, -rate, rate))
    e_R, integ = numbers(data, False, 3, -4.0, 4.0), numbers(data, False, 3)
    cfg = SimpleNamespace(**{k: number(data, False, 0.0, 100.0) for k in (
        "k_tp", "k_td", "k_rp", "k_rd", "k_ri")},
        integral_clamp=number(data, False, 0.0, 2.0))
    args = (state, sp, e_R, cfg, integ, principal_params(data),
            number(data, False, 0.0, 0.1))
    assert zero_blind(outcome(wrench_and_integral(nominal_wrench), *args)) \
        == zero_blind(outcome(
            wrench_and_integral(nominal_wrench_full_inertia), *args))


# Moments from J_MIN up have finite reciprocals.  Below about 5.56e-309,
# 1.0 / j is inf and numpy's inverse holds NaN besides (its triangular solve
# forms 0 * inf), so either form ends the first free step of a run in a
# numerical abort.
J_MIN = 5.6e-309


def test_reciprocal_moments_are_the_numpy_inverse():
    rng = np.random.default_rng(15)
    J = np.exp(rng.uniform(math.log(J_MIN), math.log(1.7e308), (30_000, 3)))
    J[:4] = [(J_MIN, 1e-308, 2.2250738585072014e-308), (1e-300, 1.0, 3.0),
             (0.008, 0.008, 0.014), (1e300, 1.7976931348623157e308, 0.1)]
    inverse = np.linalg.inv(J[:, :, None] * np.eye(3))
    want = np.diagonal(inverse, axis1=1, axis2=2).tolist()
    params = [VehicleParams(1.0, j, 9.81, None, 1.0, 1.0, 1.0, 1.0)
              for j in J.tolist()]
    assert [bits(p.J) for p in params] == [bits(j) for j in J.tolist()]
    assert [bits(p.J_inv) for p in params] == [bits(row) for row in want]


def allocate_comprehension(w, geometry, T_max, prev_tilt):
    """The previous allocate: all 2n rows of the pseudo-inverse in one list
    comprehension, sliced into vertical and lateral halves, and one
    saturation flag per rotor."""
    n = geometry.n_rotors
    (f0, f1, f2), (t0, t1, t2) = w
    x = [a * f0 + b * f1 + c * f2 + d * t0 + e * t1 + g * t2
         for a, b, c, d, e, g in np.linalg.pinv(geometry.A).tolist()]
    thrust, tilt, saturated = [], [], []
    for xv, xl, prev in zip(x[:n], x[n:], prev_tilt):
        T = math.hypot(xv, xl)
        thrust.append(T_max if T_max < T else T)
        saturated.append(T > T_max)
        tilt.append(prev if T < THRUST_EPS else math.atan2(xl, xv))
    return tuple(thrust), tuple(tilt), tuple(saturated)


GEOMETRIES = [RotorGeometry.x_config(0.12, 0.016),
              RotorGeometry.x_config(0.5, 0.0),
              RotorGeometry([[0.2, 0.1, 0.0], [-0.1, 0.3, 0.05],
                             [-0.25, -0.2, 0.0], [0.15, -0.3, -0.05]],
                            [1.0, -1.0, 1.0, -1.0], 0.02)]


@settings(max_examples=300)
@given(st.data())
def test_per_rotor_rows_match_comprehension(data):
    wild = data.draw(st.booleans())
    geometry = data.draw(st.sampled_from(GEOMETRIES))
    w = numbers(data, wild, 3), numbers(data, wild, 3)
    T_max = data.draw(st.one_of(st.sampled_from(
        (0.0, 5e-324, 1e-7, 8.0, math.inf, math.nan)), st.floats(0.0, 60.0)))
    prev = numbers(data, wild, 4, -1.0, 1.0)
    cmd_thrust, cmd_tilt, cmd_saturated = allocate(w, geometry, T_max, prev)
    thrust, tilt, saturated = allocate_comprehension(w, geometry, T_max, prev)
    assert bits(cmd_thrust + cmd_tilt) == bits(thrust + tilt)
    assert cmd_saturated is any(saturated)


def eval_lists(R0, coeffs, t):
    """The previous rotation evaluator, built with lists and appends."""
    phi, dphi = [], []
    for c1, c2, c3 in coeffs:
        phi.append(t * (c1 + t * (c2 + t * c3)))
        dphi.append(c1 + t * (2.0 * c2 + t * 3.0 * c3))
    return (mat_mul(R0, exp_so3(*phi)),
            right_jacobian(phi, dphi))


@settings(max_examples=300)
@given(st.data())
def test_rotation_eval_matches_list_form(data):
    wild = data.draw(st.booleans())
    R0 = numbers(data, wild, 9, -1.0, 1.0)
    coeffs = tuple(numbers(data, wild, 3, -5.0, 5.0) for _ in range(3))
    t = number(data, wild, 0.0, 5.0)
    assert outcome(rotation_at, R0, coeffs, t) \
        == outcome(eval_lists, R0, coeffs, t)


def translation_segment_eval(coeffs, t):
    """The previous TranslationSegment.eval, on its `coeffs`."""
    (a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5), \
        (c0, c1, c2, c3, c4, c5) = coeffs
    t5 = t * 5.0
    p = (a0 + t * (a1 + t * (a2 + t * (a3 + t * (a4 + t * a5)))),
         b0 + t * (b1 + t * (b2 + t * (b3 + t * (b4 + t * b5)))),
         c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5)))))
    v = (a1 + t * (2.0 * a2 + t * (3.0 * a3 + t * (4.0 * a4 + t5 * a5))),
         b1 + t * (2.0 * b2 + t * (3.0 * b3 + t * (4.0 * b4 + t5 * b5))),
         c1 + t * (2.0 * c2 + t * (3.0 * c3 + t * (4.0 * c4 + t5 * c5))))
    a = (2.0 * a2 + t * (6.0 * a3 + t * (12.0 * a4 + t * 20.0 * a5)),
         2.0 * b2 + t * (6.0 * b3 + t * (12.0 * b4 + t * 20.0 * b5)),
         2.0 * c2 + t * (6.0 * c3 + t * (12.0 * c4 + t * 20.0 * c5)))
    return p, v, a


@settings(max_examples=300)
@given(st.data())
def test_quintic_matches_segment_form(data):
    wild = data.draw(st.booleans())
    coeffs = tuple(numbers(data, wild, 6, -5.0, 5.0) for _ in range(3))
    t = number(data, wild, 0.0, 5.0)
    assert outcome(quintic, coeffs, t) \
        == outcome(translation_segment_eval, coeffs, t)


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
    p, _, R, _ = state
    gap = wall.gap_of(state)
    (nx, ny, nz), (_, _, eta) = wall.normal, act
    if contact.attached:
        eta_hold = 1.0 if eta >= ETA_ENGAGED else eta
        if eta <= ETA_OPEN:
            return AnchoredContact(False, gap, 0.0)
        fx, fy, fz = applied_world_force
        pull = nx * fx + ny * fy + nz * (fz - params.m * params.g)
        if pull > wall.F_mag * eta_hold:
            return AnchoredContact(False, gap, 0.0)
        return AnchoredContact(True, 0.0, wall.F_mag * eta_hold - pull,
                               anchor_p=contact.anchor_p,
                               anchor_R=contact.anchor_R)
    if eta >= ETA_ENGAGED and gap <= wall.eps_attach:
        return AnchoredContact(True, 0.0, wall.F_mag, anchor_p=p, anchor_R=R)
    out = AnchoredContact(False, gap, 0.0)
    if eta >= ETA_ENGAGED and 0.0 < gap < wall.d_mag:
        s = -wall.F_mag * (1.0 - gap / wall.d_mag)
        out.nearfield_force = (s * nx, s * ny, s * nz)
    return out


def harness_edge(contact, new_contact, act):
    """The previous harness's contact event, derived from the two states."""
    _, _, eta = act
    if new_contact.attached and not contact.attached:
        return "attach"
    if contact.attached and not new_contact.attached:
        return "release" if eta <= ETA_OPEN else "forcible-detach"
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
    state = p, _, R, _ = (numbers(data, wild, 3, 0.9, 1.1), ZERO3,
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
        p if attached else None, R if attached else None)
    before = ContactState(*astuple(old_before)[:3])
    act = (0.0,) * 4, (0.0,) * 4, eta
    params = SimpleNamespace(m=number(data, False, 0.1, 5.0),
                             g=number(data, False, 0.0, 20.0))
    applied = numbers(data, wild, 3, -80.0, 80.0)

    new, edge = update_contact(state, act, applied, before, wall, params)
    old = update_contact_anchored(state, act, applied, old_before, wall,
                                  params)
    assert contact_bits(new) == contact_bits(old)
    assert edge == harness_edge(old_before, old, act)
    if old.attached:
        assert (old.anchor_p, old.anchor_R) == (p, R)


def unfreeze(est, state, params, K_e):
    """The previous estimation.unfreeze, with the gain the state held."""
    delta_hat, _, _, frozen = est
    if not frozen:
        return est
    p_m0 = tuple([mv - d / K_e
                  for mv, d in zip(momentum(state, params), delta_hat)])
    return delta_hat, ZERO3, p_m0, False


def rebase(est, state, params):
    """The previous estimation.rebase."""
    _, _, _, frozen = est
    return ZERO3, ZERO3, momentum(state, params), frozen


def momentum(state, params):
    """The previous estimation._momentum."""
    _, v, _, _ = state
    m = params.m
    return tuple([m * x for x in v])


def estimator_bits(est):
    delta_hat, accumulator, p_m0, frozen = est
    return bits(delta_hat + accumulator + p_m0) + [frozen]


@settings(max_examples=400)
@given(st.data())
def test_fresh_matches_unfreeze_and_rebase(data):
    wild = data.draw(st.booleans())
    # build() requires a finite, positive gain and mass.
    K_e = data.draw(st.one_of(st.sampled_from((5e-324, 1e-300, 20.0, 1e300)),
                              st.floats(1e-6, 1e6)))
    params = SimpleNamespace(m=data.draw(st.one_of(
        st.sampled_from((5e-324, 1.65, 1e300)), st.floats(0.01, 10.0))))
    state = ZERO3, numbers(data, wild, 3), EYE, ZERO3
    est = delta_hat, _, _, _ = (numbers(data, wild, 3),
                                numbers(data, wild, 3),
                                numbers(data, wild, 3), False)

    resumed = estimation.fresh(state, params, K_e, delta_hat)
    assert estimator_bits(resumed) == estimator_bits(
        unfreeze(estimation.freeze(est), state, params, K_e))
    restarted = estimation.fresh(state, params, K_e)
    assert estimator_bits(restarted) == estimator_bits(
        rebase(est, state, params))


SIGNED_ROTATIONS = (EYE, rot_y(math.pi / 2), rot_y(-math.pi / 2),
                    rot_y(math.pi), (-0.0, 0.0, -1.0, 0.0, -1.0, -0.0,
                                     -1.0, -0.0, 0.0))


@settings(max_examples=300)
@given(st.data())
def test_zero_rho_perch_wrench_allocates_as_zero(data):
    # A rho = 0 wrench is signed zeros; allocate's hypot makes them +0.0
    # and holds each tilt, as for the zero wrench (ZERO3, ZERO3).
    params = ScenarioConfig().build()[0]
    R = data.draw(st.one_of(
        st.sampled_from(SIGNED_ROTATIONS),
        st.tuples(*[st.one_of(st.sampled_from((0.0, -0.0)),
                              st.floats(-1.0, 1.0))] * 9)))
    prev = tuple(data.draw(st.floats(allow_nan=True)) for _ in range(4))
    T_max = data.draw(st.floats(1e-300, 1e300))
    w = perch_wrench(0.0, R, params)
    got_thrust, got_tilt, got_saturated = allocate(w, params.rotors, T_max,
                                                   prev)
    want_thrust, want_tilt, want_saturated = allocate(
        (ZERO3, ZERO3), params.rotors, T_max, prev)
    assert bits(got_thrust + got_tilt) == bits(want_thrust + want_tilt)
    assert got_saturated == want_saturated
    assert [struct.pack("<d", x) for x in got_tilt] \
        == [struct.pack("<d", x) for x in prev]


def min_accel_rotation_to_rate(R0, Rf, w0, wf, T):
    """The previous planner.min_accel_rotation, which ended at body rate wf
    through the closed-form inverse right Jacobian."""
    if T <= 0:
        raise ValueError("segment duration must be positive")
    phi_f = log_so3(mat_t_mul(R0, Rf))
    if math.hypot(*phi_f) >= math.pi - 1e-6:
        raise ValueError("rotation endpoints are antipodal or nearly so")
    dphi0 = np.asarray(w0, dtype=float)              # J_r(0) = I
    dphif = right_jacobian_inv(phi_f, wf)
    coeffs = []
    M = np.array([[T ** 2, T ** 3], [2 * T, 3 * T ** 2]])
    for ax in range(3):
        rhs = np.array([phi_f[ax] - dphi0[ax] * T, dphif[ax] - dphi0[ax]])
        coeffs.append((float(dphi0[ax]), *np.linalg.solve(M, rhs).tolist()))
    return tuple(coeffs)


def segment_outcome(fn, *args):
    """A rotation segment's coefficients as bits, or its exception."""
    try:
        coeffs = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return bits(c for axis in coeffs for c in axis)


LIMIT = math.pi - 1e-6       # min_accel_rotation rejects |phi_f| at or above


def rotation_vector(data, angle):
    """`angle` times a drawn unit axis (or a signed-zero vector at 0)."""
    axis = data.draw(st.sampled_from(((1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                                      (-0.0, 0.0, 1.0), None)))
    if axis is None:
        axis = numbers(data, False, 3, -1.0, 1.0)
        n = math.hypot(*axis)
        axis = (1.0, 0.0, 0.0) if not 1e-3 < n < math.inf \
            else tuple(x / n for x in axis)
    return tuple(angle * x for x in axis)


@settings(max_examples=500)
@given(st.data())
def test_rest_end_rotation_matches_end_rate_form(data):
    # Every plan segment ends at rest, so the end rate the planner dropped
    # was ZERO3; J_r(phi_f)^-1 ZERO3 is +0.0 for any phi_f below the limit.
    R0 = exp_so3(*rotation_vector(data, data.draw(st.one_of(
        st.sampled_from((0.0, 1e-9, math.pi)), st.floats(0.0, math.pi)))))
    angle = data.draw(st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, 1e-12, 1e-5, LIMIT,
                         math.nextafter(LIMIT, 0.0), LIMIT - 1e-9)),
        st.floats(0.0, 1e-4), st.floats(LIMIT - 1e-7, LIMIT),
        st.floats(0.0, math.pi)))
    Rf = mat_mul(R0, exp_so3(*rotation_vector(data, angle)))
    if data.draw(st.booleans()):
        Rf = R0                                  # identical ends
    w0 = numbers(data, False, 3, -10.0, 10.0)
    T = data.draw(st.one_of(st.sampled_from((1e-3, 0.5, 1.0, 2.0)),
                            st.floats(1e-3, 1e4)))
    assert segment_outcome(min_accel_rotation, R0, Rf, w0, T) \
        == segment_outcome(min_accel_rotation_to_rate, R0, Rf, w0, ZERO3, T)


@settings(max_examples=500)
@given(st.data())
def test_inverse_jacobian_of_zero_rate_is_positive_zero(data):
    phi = rotation_vector(data, data.draw(st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, 1e-9, LIMIT)),
        st.floats(-LIMIT, LIMIT))))
    assert bits(right_jacobian_inv(phi, ZERO3)) == bits(ZERO3)


def transition_four_mode_chain(sup, lam_c, s_f2p, s_p2f, cfg):
    """One tick of the four-mode machine; reads cfg.lambda_f2p, lambda_p2f."""
    pending_f2p = sup.pending_f2p or s_f2p
    pending_p2f = sup.pending_p2f or s_p2f
    mode, eta_d = sup.mode, sup.eta_d

    if mode is Mode.F and pending_f2p:
        mode, eta_d, pending_f2p = Mode.F2P, 1.0, False
    elif mode is Mode.F2P and lam_c > cfg.lambda_f2p:
        mode = Mode.P
    elif mode is Mode.P and pending_p2f:
        mode, pending_p2f = Mode.P2F, False
    elif mode is Mode.P2F and lam_c < cfg.lambda_p2f:
        mode, eta_d = Mode.F, 0.0

    return SupervisorState(mode, eta_d, pending_f2p, pending_p2f)


def transition_two_mode_guarded(sup, lam_c, s_f2p, s_p2f, cfg):
    """The previous transition_two_mode, which tested pending_f2p twice."""
    pending_f2p = sup.pending_f2p or s_f2p
    pending_p2f = sup.pending_p2f or s_p2f
    mode, eta_d = sup.mode, sup.eta_d
    if mode is Mode.F:
        if pending_f2p and eta_d < 1.0:
            eta_d = 1.0
        if pending_f2p and lam_c > cfg.lambda_f2p:
            mode, pending_f2p = Mode.P, False
    elif mode is Mode.P and pending_p2f:
        mode, eta_d, pending_p2f = Mode.F, 0.0, False
    return SupervisorState(mode, eta_d, pending_f2p, pending_p2f)


@pytest.mark.parametrize("edges, previous", [
    (TWO_MODE, transition_two_mode_guarded),
    (FOUR_MODE, transition_four_mode_chain)], ids=["two-mode", "four-mode"])
def test_edge_table_matches_elif_chain(edges, previous):
    # The elif chains each machine was written as before its edge table.
    cfg = ScenarioConfig()
    lam = []
    for threshold in (cfg.lambda_f2p, cfg.lambda_p2f):
        lam += [math.nextafter(threshold, -math.inf), threshold,
                math.nextafter(threshold, math.inf)]
    for mode, eta_d, pend_f, pend_p, s_f, s_p, lam_c in itertools.product(
            Mode, (0.0, -0.0, 1.0), *[(False, True)] * 4,
            lam + [0.0, -math.inf, math.inf, math.nan]):
        sup = SupervisorState(mode, eta_d, pend_f, pend_p)
        new = transition(sup, lam_c, s_f, s_p, cfg, edges)
        old = previous(sup, lam_c, s_f, s_p, cfg)
        assert (new.mode, bits([new.eta_d]), new.pending_f2p,
                new.pending_p2f) == (old.mode, bits([old.eta_d]),
                                     old.pending_f2p, old.pending_p2f)


def compute_metrics_arrays(result):
    """compute_metrics as a pass of whole-log arrays, before the fold."""
    cfg = result.cfg
    gaps = result.column("gap")
    t = result.column("t")
    z = result.column("pz")
    ep = result.column("ep_norm")
    eR = result.column("eR_norm")
    sat = result.column("sat_any") > 0.5
    modes = np.array(result.modes)

    first = {}
    for te, kind, detail in result.events:
        first.setdefault((kind, detail.partition(":")[0]), te)
    failure = next((d for k, d in first if k == "failure"), "")
    m = Metrics(completed=not failure, failure=failure)

    t_signal = first.get(("operator", "s_f2p"))
    t_attach = first.get(("contact", "attach"))
    if t_attach is not None:
        m.perch_achieved = True
        m.perch_time_s = t_attach
        if t_signal is not None:
            m.time_to_perch_s = t_attach - t_signal
    t_release = first.get(("contact", "release"))
    if t_release is not None:
        m.unperch_achieved = True
        m.release_time_s = t_release
        after = t > t_release
        if after.any():
            z_rel = float(z[np.searchsorted(t, t_release, side="right") - 1])
            m.z_drop_m = float(np.max(z_rel - z[after]))
            g_after = gaps[after]
            armed = np.nonzero(g_after >= cfg.clearance_arm)[0]
            if g_after.min() < 0.0:
                m.min_clearance_m = float(g_after.min())
            elif len(armed):
                m.min_clearance_m = float(np.min(g_after[armed[0]:]))
            else:
                m.min_clearance_m = float(np.min(g_after))
            idx = np.nonzero(after)[0]
            j = settle_index(ep[idx] < cfg.settle_tol)
            if j is not None:
                m.settle_time_after_release_s = float(t[idx[j]] - t_release)

    for mode in Mode:
        sel = modes == mode.value
        n = int(sel.sum())
        if n:
            m.saturation_fraction[mode.value] = float(sat[sel].sum() / n)
            m.max_eR_rad[mode.value] = float(eR[sel].max())
    return m


def metrics_bits(m):
    """A Metrics with each float as its bits, every NaN as one NaN."""
    return {k: bits([v]) if isinstance(v, float) else
            {mode: bits([x]) for mode, x in v.items()} if isinstance(v, dict)
            else v for k, v in vars(m).items()}


METRICS_CFG = ScenarioConfig()
ARM, TOL = METRICS_CFG.clearance_arm, METRICS_CFG.settle_tol


def log_values(data, n, values, special):
    """n floats from `values`, often one of `special`.  No -0.0 is drawn:
    which of two zeros of opposite sign np.max or np.min returns depends on
    where they fall in its SIMD lanes, so no split could match it."""
    return [data.draw(st.one_of(values, st.sampled_from(special)))
            for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_metrics_fold_matches_whole_log_arrays(data):
    # A synthetic log in runs of equal mode, cut into blocks at random,
    # with a release (if any) at a logged tick chosen against the cuts.
    modes = []
    while len(modes) < 2 or data.draw(st.booleans()):
        modes += [data.draw(st.sampled_from(Mode)).value] \
            * data.draw(st.integers(1, 12))
    n = len(modes)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n - 1), max_size=6))))
    edges = [0] + cuts + [n]

    rows = np.zeros((n, len(_RECORD)))
    t = rows[:, _COL["t"]] = np.arange(n) * 0.001
    positive = st.floats(1e-3, 3.0)
    rows[:, _COL["pz"]] = log_values(data, n, positive, [1.2, math.nan])
    rows[:, _COL["eR_norm"]] = log_values(
        data, n, st.floats(0.0, 1.0), [0.0, math.nan, math.inf, -math.inf])
    rows[:, _COL["sat_any"]] = log_values(data, n, st.sampled_from([0.0, 1.0]),
                                          [0.5, math.nan])
    # ep_norm settles (stays below TOL) from a drawn tick on.
    settle = data.draw(st.integers(0, n))
    ep = st.floats(0.0, 2 * TOL)
    rows[:, _COL["ep_norm"]] = \
        log_values(data, settle, ep, [TOL, math.nan]) \
        + log_values(data, n - settle, st.floats(0.0, TOL, exclude_max=True),
                     [0.0])
    # Gaps that may never reach the clearance arm, go negative or be NaN.
    top = data.draw(st.sampled_from([ARM / 2, 2 * ARM]))
    rows[:, _COL["gap"]] = log_values(data, n, st.floats(-0.1, top).filter(
        lambda g: g != 0.0 or math.copysign(1.0, g) > 0.0),
        [ARM, -0.05, math.nan])

    release = data.draw(st.sampled_from(
        ["none", "first", "mid", "block-end", "final"]))
    events = [(0.0, "operator", "s_f2p")]
    if release != "none":
        k = {"first": 0, "final": n - 1,
             "mid": data.draw(st.integers(0, n - 1)),
             "block-end": data.draw(st.sampled_from(edges[1:])) - 1}[release]
        events += [(float(t[max(k - 1, 0)]), "contact", "attach"),
                   (float(t[k]), "contact", "release")]
    if data.draw(st.booleans()):
        events.append((float(t[-1]), "failure", "ground-contact"))
    result = SimResult(METRICS_CFG, rows, modes, events)
    want = metrics_bits(compute_metrics_arrays(result))

    # As one block, as a library run feeds it, and block by block; with
    # every event known from the start, and as a run feeds it, with the
    # events up to each block's last tick.
    for split, live in itertools.product(([0, n], edges), (False, True)):
        so_far = [] if live else events
        fold = MetricsFold(METRICS_CFG, so_far)
        for a, b in zip(split, split[1:]):
            if live:
                so_far[:] = [e for e in events if e[0] <= t[b - 1]]
            fold.feed(rows[a:b], modes[a:b])
        assert metrics_bits(compute_metrics(fold)) == want, (split, live)
