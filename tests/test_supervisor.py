"""Supervisor tests: transition edges, eta_d discipline, per-mode policies."""

import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from perchsim.scenario import ScenarioConfig
from perchsim.supervisor import (FOUR_MODE, TWO_MODE, VARIANTS, Mode,
                                 SupervisorState, transition)

CFG = ScenarioConfig()


def test_f_to_f2p_on_signal():
    out = transition(SupervisorState(), 0.0, 0.0, True, False, CFG,
                     FOUR_MODE)
    assert out.mode is Mode.F2P
    assert out.eta_d == 1.0


def test_f2p_to_p_on_compression():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    out = transition(sup, 2.0, 0.0, False, False, CFG, FOUR_MODE)
    assert out.mode is Mode.P
    assert out.eta_d == 1.0


def test_f2p_holds_below_threshold():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    for lam in (1.0, -5.0):
        out = transition(sup, lam, 0.0, False, False, CFG, FOUR_MODE)
        assert out.mode is Mode.F2P


@pytest.mark.parametrize("edges, src", [(FOUR_MODE, Mode.F2P),
                                        (TWO_MODE, Mode.F)])
def test_compression_counts_only_near_the_wall(edges, src):
    # Both machines enter P on compression only while the believed
    # magnet-face gap is at most magnet_range.
    sup = SupervisorState(mode=src, eta_d=1.0, pending_f2p=True)
    near = transition(sup, 2.0, CFG.magnet_range, False, False, CFG, edges)
    far = transition(sup, 2.0, math.nextafter(CFG.magnet_range, math.inf),
                     False, False, CFG, edges)
    assert near.mode is Mode.P
    assert far.mode is src and far.eta_d == 1.0


def test_p_to_p2f_on_signal():
    sup = SupervisorState(mode=Mode.P, eta_d=1.0)
    out = transition(sup, 10.0, 0.0, False, True, CFG, FOUR_MODE)
    assert out.mode is Mode.P2F
    assert out.eta_d == 1.0


def test_p2f_to_f_on_tension():
    sup = SupervisorState(mode=Mode.P2F, eta_d=1.0)
    out = transition(sup, -1.5, 0.0, False, False, CFG, FOUR_MODE)
    assert out.mode is Mode.F
    assert out.eta_d == 0.0


def test_self_loops_without_triggers():
    for mode in Mode:
        sup = SupervisorState(mode=mode)
        out = transition(sup, 0.0, 0.0, False, False, CFG, FOUR_MODE)
        assert out.mode is mode
        assert out.eta_d == sup.eta_d


def test_signals_latch_until_consumed():
    sup = SupervisorState(mode=Mode.F2P, eta_d=1.0)
    # signal arrives early
    sup = transition(sup, 0.0, 0.0, False, True, CFG, FOUR_MODE)
    assert sup.mode is Mode.F2P and sup.pending_p2f
    # attach confirmed
    sup = transition(sup, 2.0, 0.0, False, False, CFG, FOUR_MODE)
    assert sup.mode is Mode.P
    # latched signal fires
    sup = transition(sup, 2.0, 0.0, False, False, CFG, FOUR_MODE)
    assert sup.mode is Mode.P2F and not sup.pending_p2f


def test_full_cycle():
    sup = SupervisorState()
    sup = transition(sup, 0.0, 0.0, True, False, CFG, FOUR_MODE)
    sup = transition(sup, 2.0, 0.0, False, False, CFG, FOUR_MODE)
    sup = transition(sup, 2.0, 0.0, False, True, CFG, FOUR_MODE)
    sup = transition(sup, -2.0, 0.0, False, False, CFG, FOUR_MODE)
    assert sup.mode is Mode.F
    assert sup.eta_d == 0.0


def test_eta_d_only_on_specified_edges():
    # Walk the cycle recording eta_d changes; exactly two toggles occur.
    sup = SupervisorState()
    toggles = []
    for lam, sf, spf in [(0, 1, 0), (2, 0, 0), (2, 0, 1), (-2, 0, 0)]:
        new = transition(sup, lam, 0.0, bool(sf), bool(spf), CFG, FOUR_MODE)
        if new.eta_d != sup.eta_d:
            toggles.append((sup.mode, new.mode, new.eta_d))
        sup = new
    assert toggles == [(Mode.F, Mode.F2P, 1.0), (Mode.P2F, Mode.F, 0.0)]


def test_variant_rows():
    # Each row is (edges, policies, rho) and each policy (perch,
    # rejection_frozen, contact_active), exactly.
    for name, row in VARIANTS.items():
        assert type(row) is tuple and len(row) == 3, name
        _, policies, _ = row
        for mode, pol in policies.items():
            assert type(pol) is tuple and len(pol) == 3, (name, mode)
            assert all(type(flag) is bool for flag in pol), (name, mode)


def test_mode_policies():
    _, policies, _ = VARIANTS["proposed"]
    perch, rejection_frozen, contact_active = policies[Mode.F]
    assert not perch and not rejection_frozen
    assert not contact_active
    perch, rejection_frozen, contact_active = policies[Mode.F2P]
    assert not perch and rejection_frozen
    assert contact_active
    perch, rejection_frozen, _ = policies[Mode.P]
    assert perch and rejection_frozen
    perch, rejection_frozen, _ = policies[Mode.P2F]
    assert not perch and rejection_frozen


def test_two_mode_arms_then_attaches():
    sup = SupervisorState()
    sup = transition(sup, 0.0, 0.0, True, False, CFG, TWO_MODE)
    assert sup.mode is Mode.F and sup.eta_d == 1.0
    sup = transition(sup, 2.0, 0.0, False, False, CFG, TWO_MODE)
    assert sup.mode is Mode.P


def test_two_mode_p_to_f_in_one_step():
    sup = SupervisorState(mode=Mode.P, eta_d=1.0)
    out = transition(sup, 10.0, 0.0, False, True, CFG, TWO_MODE)
    assert out.mode is Mode.F
    assert out.eta_d == 0.0


def test_two_mode_self_loop():
    sup = SupervisorState()
    out = transition(sup, 0.0, 0.0, False, False, CFG, TWO_MODE)
    assert out.mode is Mode.F and out.eta_d == 0.0


def test_no_transition_policies():
    for name in ("no-transitions-rho0", "no-transitions-rho0.5"):
        _, policies, _ = VARIANTS[name]
        perch, rejection_frozen, _ = policies[Mode.F]
        assert not perch
        assert not rejection_frozen
        perch, rejection_frozen, _ = policies[Mode.P]
        assert perch
        assert not rejection_frozen


def test_no_freeze_policies_never_freeze():
    # The ablation is the proposed machine with the perch wrench and every
    # freeze removed, and nothing else.
    edges, policies, rho = VARIANTS["no-freeze"]
    proposed_edges, proposed, proposed_rho = VARIANTS["proposed"]
    assert edges is proposed_edges and rho is proposed_rho is None
    assert set(policies) == set(proposed) == set(Mode)
    for mode in Mode:
        perch, rejection_frozen, _ = policies[mode]
        assert not perch
        assert not rejection_frozen
        _, _, contact_active = proposed[mode]
        assert policies[mode] == (False, False, contact_active), mode


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
            frontier.append(
                transition(sup, lam, 0.0, s_f2p, s_p2f, CFG, edges))
    return {mode for mode, *_ in seen}


def test_variant_policies_cover_reachable_modes():
    assert _reachable(FOUR_MODE) == set(Mode)
    assert _reachable(TWO_MODE) == {Mode.F, Mode.P}
    for name, (edges, policies, _) in VARIANTS.items():
        assert _reachable(edges) <= set(policies), name


def test_switch_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(lambda_f2p=-1.0, lambda_p2f=1.0).build()
