"""Runtime configuration: tolerances, budgets, and their defaults.

A config file is plain ``key = value`` text (one per line, # comments); the
effective values are echoed in every report so runs are reproducible.  The
default tolerances below are the single definition read both by
``Settings`` and by the keyword defaults of the layers that use them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

CONTINUATION_TOL = 1e-10   # branch tracking (monodromy)
ROOT_TOL = 1e-12           # certified root enclosures
FUCHSIAN_TOL = 1e-10       # series truncation per piece of a Fuchsian loop
EIG_CLUSTER_TOL = 1e-8     # eigenvalue clustering (triangularization)


@dataclass
class Settings:
    continuation_tol: float = CONTINUATION_TOL
    root_tol: float = ROOT_TOL
    fuchsian_tol: float = FUCHSIAN_TOL
    eig_cluster_tol: float = EIG_CLUSTER_TOL
    witness_degree_bound: int = 0          # 0 = automatic

    def to_json(self):
        return asdict(self)


def load_settings(path: str | None) -> Settings:
    settings = Settings()
    if path is None:
        return settings
    valid = {f.name: f.type for f in fields(Settings)}
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
            current = getattr(settings, key)
            setattr(settings, key,
                    int(value) if isinstance(current, int) else float(value))
    return settings
