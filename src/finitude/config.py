"""Runtime configuration: tolerances, budgets, and their defaults.

A config file is plain ``key = value`` text (one per line, # comments); the
effective values are echoed in every report so runs are reproducible.  The
default tolerances below are the single definition read both by
``Settings`` and by the keyword defaults of the layers that use them.  A
tolerance must be a finite positive number.  The Fuchsian
triangularization test has no setting: its one threshold separates
measured traces that lie many orders of magnitude apart.
"""

from __future__ import annotations

import math

CONTINUATION_TOL = 1e-10   # branch tracking (monodromy)
ROOT_TOL = 1e-12           # certified root enclosures
FUCHSIAN_TOL = 1e-10       # series truncation per piece of a Fuchsian loop


class Settings:
    """The effective settings; ``to_json`` gives every key, in this order.
    A plain class: ``dataclasses`` and the ``inspect`` it loads would take
    most of the time ``import finitude.cli`` takes."""

    def __init__(self, continuation_tol: float = CONTINUATION_TOL,
                 root_tol: float = ROOT_TOL,
                 fuchsian_tol: float = FUCHSIAN_TOL):
        self.continuation_tol = continuation_tol
        self.root_tol = root_tol
        self.fuchsian_tol = fuchsian_tol

    def to_json(self):
        return dict(vars(self))


def load_settings(path: str | None) -> Settings:
    settings = Settings()
    if path is None:
        return settings
    valid = settings.to_json()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in valid:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            number = float(value)
            if not (math.isfinite(number) and number > 0.0):
                raise ValueError(f"{path}:{lineno}: {key} must be a finite "
                                 f"positive number, not {value!r}")
            setattr(settings, key, number)
    return settings
