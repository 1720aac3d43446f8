"""Four-mode switching supervisor (F, F2P, P, P2F) and its two-mode ablation.

A machine is a tuple of edges (from, perch, unperch, force, to, eta_d).  The
first edge out of the current mode whose needs hold fires: the perch signal
if `perch`, the unperch signal if `unperch`, the Force test `force` (a NaN
estimate fails both) unless None.  It enters `to`, sets the servo target to
`eta_d` unless None, and, if it changes the mode, consumes the signals it
needed; they stay latched until then.  VARIANTS maps each variant's name to
its machine, per-mode policies and overrides.
"""

import enum
from dataclasses import dataclass


class Mode(enum.Enum):
    F = "F"
    F2P = "F2P"
    P = "P"
    P2F = "P2F"


@dataclass
class SupervisorState:
    mode: Mode = Mode.F
    eta_d: float = 0.0
    pending_f2p: bool = False
    pending_p2f: bool = False


@dataclass(frozen=True)
class PolicyDescriptor:
    """Per-mode wiring of controller and estimators."""
    perch: bool                      # perch_wrench, else nominal_wrench
    rejection_frozen: bool           # else nominal_wrench + rejection force
    contact_active: bool


class Force(enum.Enum):
    COMPRESSION = enum.auto()        # lam_c > lambda_f2p: attached
    TENSION = enum.auto()            # lam_c < lambda_p2f: released


def transition(sup, lam_c, s_f2p, s_p2f, cfg, edges):
    """One tick of the machine `edges` (FOUR_MODE or TWO_MODE) from `sup`."""
    pending_f2p = sup.pending_f2p or s_f2p
    pending_p2f = sup.pending_p2f or s_p2f
    for src, perch, unperch, force, dst, eta_d in edges:
        if src is not sup.mode or perch and not pending_f2p \
                or unperch and not pending_p2f \
                or force is Force.COMPRESSION and not lam_c > cfg.lambda_f2p \
                or force is Force.TENSION and not lam_c < cfg.lambda_p2f:
            continue
        if dst is not sup.mode:
            pending_f2p = pending_f2p and not perch
            pending_p2f = pending_p2f and not unperch
        return SupervisorState(dst, sup.eta_d if eta_d is None else eta_d,
                               pending_f2p, pending_p2f)
    return SupervisorState(sup.mode, sup.eta_d, pending_f2p, pending_p2f)


FOUR_MODE = (
    (Mode.F, True, False, None, Mode.F2P, 1.0),
    (Mode.F2P, False, False, Force.COMPRESSION, Mode.P, None),
    (Mode.P, False, True, None, Mode.P2F, None),
    (Mode.P2F, False, False, Force.TENSION, Mode.F, 0.0),
)

TWO_MODE = (
    (Mode.F, True, False, Force.COMPRESSION, Mode.P, 1.0),
    (Mode.F, True, False, None, Mode.F, 1.0),    # arm the servo, stay in F
    (Mode.P, False, True, None, Mode.F, 0.0),
)


@dataclass(frozen=True)
class Variant:
    """Everything that sets one controller variant apart in the tick loop."""
    edges: tuple                     # FOUR_MODE or TWO_MODE
    policies: dict                   # Mode -> PolicyDescriptor
    rho: float = None                # perch wrench fraction; None: scenario's
    freeze_while_attached: bool = False


# Each row: PolicyDescriptor(perch, rejection_frozen, contact_active).
_FOUR_MODE_POLICIES = {
    Mode.F: PolicyDescriptor(False, False, False),
    Mode.F2P: PolicyDescriptor(False, True, True),
    Mode.P: PolicyDescriptor(True, True, True),
    Mode.P2F: PolicyDescriptor(False, True, True),
}

_TWO_MODE_POLICIES = {
    Mode.F: PolicyDescriptor(False, False, True),
    Mode.P: PolicyDescriptor(True, False, True),
}

# Never freezes estimation and keeps motion control active while perched
# (saturation ablation).
_NO_FREEZE_POLICIES = {
    Mode.F: PolicyDescriptor(False, False, False),
    Mode.F2P: PolicyDescriptor(False, False, True),
    Mode.P: PolicyDescriptor(False, False, True),
    Mode.P2F: PolicyDescriptor(False, False, True),
}

VARIANTS = {
    "proposed": Variant(FOUR_MODE, _FOUR_MODE_POLICIES,
                        freeze_while_attached=True),
    "no-transitions-rho0": Variant(TWO_MODE, _TWO_MODE_POLICIES, rho=0.0),
    "no-transitions-rho0.5": Variant(TWO_MODE, _TWO_MODE_POLICIES, rho=0.5),
    "no-freeze": Variant(FOUR_MODE, _NO_FREEZE_POLICIES),
}
