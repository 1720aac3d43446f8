"""Supervisor tests: transition edges, eta_d discipline, per-mode policies."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

from perchsim.scenario import ScenarioConfig
from perchsim.supervisor import (VARIANTS, Mode, SupervisorState, transition,
                                 transition_two_mode)

CFG = ScenarioConfig()


def test_f_to_f2p_on_signal():
    out = transition(SupervisorState(), 0.0, True, False, CFG)
    assert out.mode is Mode.F2P
    assert out.eta_d == 1.0


def test_f2p_to_p_on_compression():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    out = transition(sup, 2.0, False, False, CFG)
    assert out.mode is Mode.P
    assert out.eta_d == 1.0


def test_f2p_holds_below_threshold():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    assert transition(sup, 1.0, False, False, CFG).mode is Mode.F2P
    assert transition(sup, -5.0, False, False, CFG).mode is Mode.F2P


def test_p_to_p2f_on_signal():
    sup = SupervisorState(mode=Mode.P, eta_d=1.0)
    out = transition(sup, 10.0, False, True, CFG)
    assert out.mode is Mode.P2F
    assert out.eta_d == 1.0


def test_p2f_to_f_on_tension():
    sup = SupervisorState(mode=Mode.P2F, eta_d=1.0)
    out = transition(sup, -1.5, False, False, CFG)
    assert out.mode is Mode.F
    assert out.eta_d == 0.0


def test_self_loops_without_triggers():
    for mode in Mode:
        sup = SupervisorState(mode=mode)
        out = transition(sup, 0.0, False, False, CFG)
        assert out.mode is mode
        assert out.eta_d == sup.eta_d


def test_signals_latch_until_consumed():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    sup = transition(sup, 0.0, False, True, CFG)   # signal arrives early
    assert sup.mode is Mode.F2P and sup.pending_p2f
    sup = transition(sup, 2.0, False, False, CFG)  # attach confirmed
    assert sup.mode is Mode.P
    sup = transition(sup, 2.0, False, False, CFG)  # latched signal fires
    assert sup.mode is Mode.P2F and not sup.pending_p2f


def test_full_cycle():
    sup = SupervisorState()
    sup = transition(sup, 0.0, True, False, CFG)
    sup = transition(sup, 2.0, False, False, CFG)
    sup = transition(sup, 2.0, False, True, CFG)
    sup = transition(sup, -2.0, False, False, CFG)
    assert sup.mode is Mode.F
    assert sup.eta_d == 0.0


def test_eta_d_only_on_specified_edges():
    # Walk the cycle recording eta_d changes; exactly two toggles occur.
    sup = SupervisorState()
    toggles = []
    for lam, sf, spf in [(0, 1, 0), (2, 0, 0), (2, 0, 1), (-2, 0, 0)]:
        new = transition(sup, lam, bool(sf), bool(spf), CFG)
        if new.eta_d != sup.eta_d:
            toggles.append((sup.mode, new.mode, new.eta_d))
        sup = new
    assert toggles == [(Mode.F, Mode.F2P, 1.0), (Mode.P2F, Mode.F, 0.0)]


def test_mode_policies():
    policies = VARIANTS["proposed"].policies
    pol = policies[Mode.F]
    assert pol.wrench == "full" and not pol.rejection_frozen
    assert not pol.contact_active
    pol = policies[Mode.F2P]
    assert pol.wrench == "nominal" and pol.rejection_frozen
    assert pol.contact_active
    pol = policies[Mode.P]
    assert pol.wrench == "perch" and pol.rejection_frozen
    pol = policies[Mode.P2F]
    assert pol.wrench == "nominal" and pol.rejection_frozen


def test_two_mode_arms_then_attaches():
    sup = SupervisorState()
    sup = transition_two_mode(sup, 0.0, True, False, CFG)
    assert sup.mode is Mode.F and sup.eta_d == 1.0
    sup = transition_two_mode(sup, 2.0, False, False, CFG)
    assert sup.mode is Mode.P


def test_two_mode_p_to_f_in_one_step():
    sup = SupervisorState(mode=Mode.P, eta_d=1.0)
    out = transition_two_mode(sup, 10.0, False, True, CFG)
    assert out.mode is Mode.F
    assert out.eta_d == 0.0


def test_two_mode_self_loop():
    sup = SupervisorState()
    out = transition_two_mode(sup, 0.0, False, False, CFG)
    assert out.mode is Mode.F and out.eta_d == 0.0


def test_no_transition_policies():
    for name in ("no-transitions-rho0", "no-transitions-rho0.5"):
        policies = VARIANTS[name].policies
        assert policies[Mode.F].wrench == "full"
        assert policies[Mode.P].wrench == "perch"
        assert not policies[Mode.P].rejection_frozen


def test_no_freeze_policies_never_freeze():
    for mode in Mode:
        pol = VARIANTS["no-freeze"].policies[mode]
        assert pol.wrench == "full"
        assert not pol.rejection_frozen


def _reachable(transition_fn):
    """Modes the machine reaches from rest under any lam_c band and signals."""
    seen, frontier = set(), [SupervisorState()]
    while frontier:
        sup = frontier.pop()
        if astuple(sup) in seen:
            continue
        seen.add(astuple(sup))
        for lam, s_f2p, s_p2f in itertools.product(
                (-2.0, 0.0, 2.0), (False, True), (False, True)):
            frontier.append(transition_fn(sup, lam, s_f2p, s_p2f, CFG))
    return {mode for mode, *_ in seen}


def test_variant_policies_cover_reachable_modes():
    assert _reachable(transition) == set(Mode)
    assert _reachable(transition_two_mode) == {Mode.F, Mode.P}
    for name, variant in VARIANTS.items():
        fn = transition_two_mode if variant.two_mode else transition
        assert _reachable(fn) <= set(variant.policies), name


def test_switch_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(lambda_f2p=-1.0, lambda_p2f=1.0).validate()
