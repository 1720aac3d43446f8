"""Supervisor tests: transition edges, eta_d discipline, per-mode policies."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

from perchsim.scenario import ScenarioConfig
from perchsim.supervisor import (FOUR_MODE, TWO_MODE, VARIANTS, Mode,
                                 SupervisorState, transition)

CFG = ScenarioConfig()


def test_f_to_f2p_on_signal():
    out = transition(SupervisorState(), 0.0, True, False, CFG, FOUR_MODE)
    assert out.mode is Mode.F2P
    assert out.eta_d == 1.0


def test_f2p_to_p_on_compression():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    out = transition(sup, 2.0, False, False, CFG, FOUR_MODE)
    assert out.mode is Mode.P
    assert out.eta_d == 1.0


def test_f2p_holds_below_threshold():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    assert transition(sup, 1.0, False, False, CFG, FOUR_MODE).mode is Mode.F2P
    assert transition(sup, -5.0, False, False, CFG, FOUR_MODE).mode is Mode.F2P


def test_p_to_p2f_on_signal():
    sup = SupervisorState(mode=Mode.P, eta_d=1.0)
    out = transition(sup, 10.0, False, True, CFG, FOUR_MODE)
    assert out.mode is Mode.P2F
    assert out.eta_d == 1.0


def test_p2f_to_f_on_tension():
    sup = SupervisorState(mode=Mode.P2F, eta_d=1.0)
    out = transition(sup, -1.5, False, False, CFG, FOUR_MODE)
    assert out.mode is Mode.F
    assert out.eta_d == 0.0


def test_self_loops_without_triggers():
    for mode in Mode:
        sup = SupervisorState(mode=mode)
        out = transition(sup, 0.0, False, False, CFG, FOUR_MODE)
        assert out.mode is mode
        assert out.eta_d == sup.eta_d


def test_signals_latch_until_consumed():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    # signal arrives early
    sup = transition(sup, 0.0, False, True, CFG, FOUR_MODE)
    assert sup.mode is Mode.F2P and sup.pending_p2f
    # attach confirmed
    sup = transition(sup, 2.0, False, False, CFG, FOUR_MODE)
    assert sup.mode is Mode.P
    # latched signal fires
    sup = transition(sup, 2.0, False, False, CFG, FOUR_MODE)
    assert sup.mode is Mode.P2F and not sup.pending_p2f


def test_full_cycle():
    sup = SupervisorState()
    sup = transition(sup, 0.0, True, False, CFG, FOUR_MODE)
    sup = transition(sup, 2.0, False, False, CFG, FOUR_MODE)
    sup = transition(sup, 2.0, False, True, CFG, FOUR_MODE)
    sup = transition(sup, -2.0, False, False, CFG, FOUR_MODE)
    assert sup.mode is Mode.F
    assert sup.eta_d == 0.0


def test_eta_d_only_on_specified_edges():
    # Walk the cycle recording eta_d changes; exactly two toggles occur.
    sup = SupervisorState()
    toggles = []
    for lam, sf, spf in [(0, 1, 0), (2, 0, 0), (2, 0, 1), (-2, 0, 0)]:
        new = transition(sup, lam, bool(sf), bool(spf), CFG, FOUR_MODE)
        if new.eta_d != sup.eta_d:
            toggles.append((sup.mode, new.mode, new.eta_d))
        sup = new
    assert toggles == [(Mode.F, Mode.F2P, 1.0), (Mode.P2F, Mode.F, 0.0)]


def test_mode_policies():
    policies = VARIANTS["proposed"].policies
    pol = policies[Mode.F]
    assert not pol.perch and not pol.rejection_frozen
    assert not pol.contact_active
    pol = policies[Mode.F2P]
    assert not pol.perch and pol.rejection_frozen
    assert pol.contact_active
    pol = policies[Mode.P]
    assert pol.perch and pol.rejection_frozen
    pol = policies[Mode.P2F]
    assert not pol.perch and pol.rejection_frozen


def test_two_mode_arms_then_attaches():
    sup = SupervisorState()
    sup = transition(sup, 0.0, True, False, CFG, TWO_MODE)
    assert sup.mode is Mode.F and sup.eta_d == 1.0
    sup = transition(sup, 2.0, False, False, CFG, TWO_MODE)
    assert sup.mode is Mode.P


def test_two_mode_p_to_f_in_one_step():
    sup = SupervisorState(mode=Mode.P, eta_d=1.0)
    out = transition(sup, 10.0, False, True, CFG, TWO_MODE)
    assert out.mode is Mode.F
    assert out.eta_d == 0.0


def test_two_mode_self_loop():
    sup = SupervisorState()
    out = transition(sup, 0.0, False, False, CFG, TWO_MODE)
    assert out.mode is Mode.F and out.eta_d == 0.0


def test_no_transition_policies():
    for name in ("no-transitions-rho0", "no-transitions-rho0.5"):
        policies = VARIANTS[name].policies
        assert not policies[Mode.F].perch
        assert not policies[Mode.F].rejection_frozen
        assert policies[Mode.P].perch
        assert not policies[Mode.P].rejection_frozen


def test_no_freeze_policies_never_freeze():
    for mode in Mode:
        pol = VARIANTS["no-freeze"].policies[mode]
        assert not pol.perch
        assert not pol.rejection_frozen


def _reachable(edges):
    """Modes the machine reaches from rest under any lam_c band and signals."""
    seen, frontier = set(), [SupervisorState()]
    while frontier:
        sup = frontier.pop()
        if astuple(sup) in seen:
            continue
        seen.add(astuple(sup))
        for lam, s_f2p, s_p2f in itertools.product(
                (-2.0, 0.0, 2.0), (False, True), (False, True)):
            frontier.append(transition(sup, lam, s_f2p, s_p2f, CFG, edges))
    return {mode for mode, *_ in seen}


def test_variant_policies_cover_reachable_modes():
    assert _reachable(FOUR_MODE) == set(Mode)
    assert _reachable(TWO_MODE) == {Mode.F, Mode.P}
    for name, variant in VARIANTS.items():
        assert _reachable(variant.edges) <= set(variant.policies), name


def test_switch_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(lambda_f2p=-1.0, lambda_p2f=1.0).build()
