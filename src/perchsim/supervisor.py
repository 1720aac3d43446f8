"""Four-mode switching supervisor (F, F2P, P, P2F) and its two-mode ablation.

Operator signals are latched until their edge consumes them.  The perch-servo
target eta_d toggles only on the F->F2P edge (engage) and the P2F->F edge
(disengage).  The two-mode machine used by the no-transition ablations skips
both transition modes and collapses the eta_d edges onto its single switches.
VARIANTS maps each controller variant's name to its machine, per-mode
policies and overrides.
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
    wrench: str                      # "full" | "nominal" | "perch"
    rejection_frozen: bool
    contact_active: bool


def transition(sup, lam_c, s_f2p, s_p2f, cfg):
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


def transition_two_mode(sup, lam_c, s_f2p, s_p2f, cfg):
    """Ablation machine without transition modes: F <-> P directly.

    The perch signal arms the servo immediately (eta_d <- 1); the switch to P
    fires once armed and the contact force confirms attachment.  The unperch
    signal drops straight back to F in one step.  Reads lambda_f2p (N).
    """
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


@dataclass(frozen=True)
class Variant:
    """Everything that sets one controller variant apart in the tick loop."""
    two_mode: bool                   # transition_two_mode; replan on eta_d edge
    policies: dict                   # Mode -> PolicyDescriptor
    rho: float = None                # perch wrench fraction; None: scenario's
    freeze_while_attached: bool = False


_FOUR_MODE_POLICIES = {
    Mode.F: PolicyDescriptor("full", False, False),
    Mode.F2P: PolicyDescriptor("nominal", True, True),
    Mode.P: PolicyDescriptor("perch", True, True),
    Mode.P2F: PolicyDescriptor("nominal", True, True),
}

_TWO_MODE_POLICIES = {
    Mode.F: PolicyDescriptor("full", False, True),
    Mode.P: PolicyDescriptor("perch", False, True),
}

# Never freezes estimation and keeps motion control active while perched
# (saturation ablation).
_NO_FREEZE_POLICIES = {
    Mode.F: PolicyDescriptor("full", False, False),
    Mode.F2P: PolicyDescriptor("full", False, True),
    Mode.P: PolicyDescriptor("full", False, True),
    Mode.P2F: PolicyDescriptor("full", False, True),
}

VARIANTS = {
    "proposed": Variant(False, _FOUR_MODE_POLICIES,
                        freeze_while_attached=True),
    "no-transitions-rho0": Variant(True, _TWO_MODE_POLICIES, rho=0.0),
    "no-transitions-rho0.5": Variant(True, _TWO_MODE_POLICIES, rho=0.5),
    "no-freeze": Variant(False, _NO_FREEZE_POLICIES),
}
