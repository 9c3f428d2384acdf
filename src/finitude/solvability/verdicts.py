"""Representability verdicts with structured justifications.

A Verdict never asserts more than it can witness: Representable carries a
radical certificate when the constructive tower succeeded, otherwise the
solvable-group data; NotRepresentable carries the unsolvable group (or the
failed chain for k-radicals); numeric or budget failures become Undecided
with the reason preserved.
"""

from __future__ import annotations

from ..algebra.poly import BivariatePolynomial, UnivariatePolynomial
from ..errors import (FinitudeError, ReducibleInput, SearchBudgetExceeded,
                      UnsupportedGroup)
from ..monodromy import MonodromyAction, monodromy_group
from ..permgroups import cycles_string, is_k_solvable
from .ritt import classify_primitive, inverse_curve, ritt_decompose
from .towers import radical_tower


class VerdictStatus:
    REPRESENTABLE = "Representable"
    NOT_REPRESENTABLE = "NotRepresentable"
    UNDECIDED = "Undecided"


class Verdict:
    def __init__(self, status, reason, group=None, certificate=None,
                 witness=None, extras=None):
        self.status = status
        self.reason = reason
        self.group = group
        self.certificate = certificate
        self.witness = witness
        self.extras = extras or {}

    @property
    def representable(self):
        return self.status == VerdictStatus.REPRESENTABLE

    def to_json(self):
        data = {"status": self.status, "reason": self.reason}
        if self.group is not None:
            data["group"] = {
                "order": self.group.order(),
                "generators": [cycles_string(g)
                               for g in self.group.generators],
            }
        if self.certificate is not None:
            data["certificate"] = self.certificate.to_string()
            data["certificate_exact"] = self.certificate.exact
        if self.witness is not None:
            data["witness"] = self.witness
        data.update(self.extras)
        return data

    def __repr__(self):
        return f"Verdict({self.status}: {self.reason})"


def monodromy_failed(err: FinitudeError) -> Verdict:
    return Verdict(VerdictStatus.UNDECIDED,
                   f"monodromy computation failed: {err}")


def _transitive_action(P: BivariatePolynomial, action):
    """The given action, else the computed one or an Undecided verdict;
    reducible curves are rejected, as verdicts are per branch."""
    if action is None:
        try:
            action = monodromy_group(P)
        except FinitudeError as err:
            return None, monodromy_failed(err)
    if not action.transitive:
        raise ReducibleInput(
            f"curve splits into orbits {action.orbits()}; "
            "apply the verdict to each factor")
    return action, None


def radicals_verdict(P: BivariatePolynomial, want_certificate: bool = True,
                     action: MonodromyAction = None) -> Verdict:
    """Representability of the algebraic function P(x, y) = 0 by radicals.

    Solvable monodromy gives Representable (with a radical tower when the
    constructive scope covers the group); unsolvable monodromy gives
    NotRepresentable with the group as witness.  A precomputed ``action``
    of P is used as is; without one, the monodromy is computed here and any
    failure gives Undecided.
    """
    action, failure = _transitive_action(P, action)
    if failure is not None:
        return failure
    group = action.group
    if not group.is_solvable():
        return Verdict(
            VerdictStatus.NOT_REPRESENTABLE,
            f"monodromy group of order {group.order()} is unsolvable",
            group=group)
    certificate = None
    note = "monodromy group is solvable"
    if want_certificate:
        try:
            certificate = radical_tower(P, action)
        except UnsupportedGroup as err:
            note = f"monodromy group is solvable; tower skipped ({err})"
        except FinitudeError as err:
            note = f"monodromy group is solvable; tower failed ({err})"
    return Verdict(VerdictStatus.REPRESENTABLE, note, group=group,
                   certificate=certificate)


def k_radicals_verdict(P: BivariatePolynomial, k: int,
                       action: MonodromyAction = None) -> Verdict:
    """Representability by k-radicals via k-solvability of the monodromy."""
    action, failure = _transitive_action(P, action)
    if failure is not None:
        return failure
    group = action.group
    try:
        ok, chain = is_k_solvable(group, k)
    except SearchBudgetExceeded as err:
        return Verdict(VerdictStatus.UNDECIDED,
                       f"k-solvability undecided: {err}", group=group)
    if ok:
        return Verdict(VerdictStatus.REPRESENTABLE,
                       f"monodromy group is {k}-solvable", group=group,
                       witness=[str(step) for step in chain])
    return Verdict(VerdictStatus.NOT_REPRESENTABLE,
                   f"monodromy group is not {k}-solvable", group=group,
                   witness=[str(step) for step in chain])


def invertible_by_radicals(f: UnivariatePolynomial) -> Verdict:
    """Is the inverse function of f representable by radicals?

    Decomposes f into primitive factors and classifies each; factors all in
    {linear, power, chebyshev, degree <= 4} certify Representable.  An
    Other factor triggers the independent monodromy route on f(y) - x,
    whose outcome decides (and is reported alongside the classification).
    """
    chain = ritt_decompose(f)
    classifications = [classify_primitive(g) for g in chain]
    kinds = [c.kind for c in classifications]
    if all(c.is_radical_friendly() for c in classifications):
        return Verdict(
            VerdictStatus.REPRESENTABLE,
            "all primitive factors are linear/power/Chebyshev/degree<=4",
            extras={"factors": [g.format() for g in chain],
                    "classification": kinds})
    verdict = radicals_verdict(inverse_curve(f), want_certificate=False)
    if verdict.status == VerdictStatus.NOT_REPRESENTABLE:
        verdict.reason = ("a primitive factor classifies as Other and the "
                          "inverse-curve monodromy is unsolvable")
    else:
        verdict.reason = ("classification found an Other factor but the "
                          "inverse-curve monodromy decides: " + verdict.reason)
    verdict.extras["factors"] = [g.format() for g in chain]
    verdict.extras["classification"] = kinds
    return verdict
