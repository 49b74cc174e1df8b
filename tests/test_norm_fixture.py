"""Tests for the norm-bounded Taylor system, whose membership requirement
(every peel-off stage within the unit sup-norm ball on [0, 1]) makes some
convergents improper while deeper ones recover."""

from fractions import Fraction

import pytest

import expansions.polynomials as polynomials
import expansions.seriessys as seriessys
from expansions import (
    DomainError,
    NormTaylorSystem,
    Polynomial,
    convergent,
    properness_profile,
    sup_norm_le,
    trajectory,
)

F = Fraction

# 1/2 + x - x^2 + x^3 - x^4: the reference input with a mixed profile.
FIXTURE = Polynomial.of(F(1, 2), 1, -1, 1, -1)


def test_stage_values_exact() -> None:
    stages = trajectory(NormTaylorSystem(), FIXTURE, 5)
    assert stages[1] == Polynomial.of(1, -1, 1, -1)
    assert stages[2] == Polynomial.of(-1, 1, -1)
    assert stages[3] == Polynomial.of(1, -1)
    assert stages[4] == Polynomial.of(-1)
    assert stages[5] == Polynomial.of()


def test_stage_norms() -> None:
    stages = trajectory(NormTaylorSystem(), FIXTURE, 5)
    head = stages[0]
    assert not sup_norm_le(head, F(8264467, 10**7))
    assert sup_norm_le(head, F(8264470, 10**7))
    # the head's peak is at 0.60583 to within 10^-5: its value there is
    # already above the lower bracket
    assert abs(head(F(60583, 10**5))) > F(8264467, 10**7)
    for stage in stages[1:5]:
        assert sup_norm_le(stage, 1)
        assert not sup_norm_le(stage, 1 - F(1, 10**12))


def test_properness_profile() -> None:
    profile = properness_profile(NormTaylorSystem(), FIXTURE, 5)
    assert profile == [None, None, 0, None, 0, None]


def test_proper_convergent_at_three() -> None:
    trace = convergent(NormTaylorSystem(), FIXTURE, 3)
    assert trace.improper_at is None
    assert trace.value == Polynomial.of(F(1, 2), 1, -1)
    # Its own peel-off stays inside the ball: 3/4 and then 1 at the top.
    assert sup_norm_le(trace.value, 1)


def test_improper_convergents_at_two_and_four() -> None:
    sysm = NormTaylorSystem()
    for n in (2, 4):
        trace = convergent(sysm, FIXTURE, n)
        assert trace.value is None
        assert trace.improper_at == 0
    # The depth-2 candidate would be 1/2 + x, whose sup-norm 3/2 breaks the
    # membership bound, so reconstruction at level 0 refuses it.
    candidate = Polynomial.of(F(1, 2), 1)
    assert sup_norm_le(candidate, F(3, 2))
    assert not sup_norm_le(candidate, F(3, 2) - F(1, 10**12))
    assert sysm.reconstruct(0, F(1, 2), Polynomial.of(1)) is None


def test_membership_validation() -> None:
    with pytest.raises(DomainError):
        trajectory(NormTaylorSystem(), Polynomial.of(2), 1)
    with pytest.raises(DomainError):
        trajectory(NormTaylorSystem(), Polynomial.of(F(1, 2), 1), 1)
    trajectory(NormTaylorSystem(), Polynomial.of(F(1, 2), F(1, 2)), 1)


def test_reconstruct_decides_only_the_new_stage(monkeypatch) -> None:
    # Validation walks the 10 nonzero stages of the degree-9 input and its
    # zero stage; each of the 9 backward steps then decides one new stage.
    # The walk calls the integer decision directly and reconstruct reaches it
    # through sup_norm_le, so both module bindings are counted.
    decide = polynomials.sup_norm_le_int
    calls = []

    def counted(cs, top):
        calls.append(cs)
        return decide(cs, top)

    monkeypatch.setattr(seriessys, "sup_norm_le_int", counted)
    monkeypatch.setattr(polynomials, "sup_norm_le_int", counted)
    y = Polynomial.of(*[F((-1) ** k, 10) for k in range(10)])
    trace = convergent(NormTaylorSystem(), y, 9)
    assert trace.proper
    assert len(calls) == 20
