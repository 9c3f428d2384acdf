"""Runtime configuration: tolerances, budgets, and their defaults.

A config file is plain ``key = value`` text (one per line, # comments); the
effective values are echoed in every report so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


@dataclass
class Settings:
    continuation_tol: float = 1e-10
    root_tol: float = 1e-12
    matching_margin: float = 1 / 3        # fraction of min root separation
    group_degree_cap: int = 32
    k_solvable_degree_cap: int = 16
    witness_degree_bound: int = 0          # 0 = automatic
    fuchsian_tol: float = 1e-10
    eig_cluster_tol: float = 1e-8
    tower_match_tol: float = 1e-8
    puiseux_order: int = 4

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
