"""Per-command correctness checks at the repository's pinned tolerances.

Each check reads only the files a command wrote and returns one `Check`
per compared quantity.  A NaN value fails, because `nan <= tol` is false.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

# C6: enclosed mass and boundary circulation equal the pole weight.
MASS_TOL = 2e-3
# C7: disc area equals the leaf level; relative Hamiltonian drift.
AREA_TOL = 1e-2
DRIFT_REL_TOL = 1e-3
# C9: maximality residual bound, in node spacings.
RESIDUAL_H = 10.0


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.value <= self.tol


def read_rows(path: Path) -> list:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            rows.append([float(v) for v in line.split(",")])
    return rows


def read_kv(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


def check_flow(out: Path) -> list:
    checks = []
    for lam, mass, circ in read_rows(out / "masses.csv"):
        checks.append(Check(f"mass@{lam:.4f}", abs(mass - lam), MASS_TOL))
        checks.append(Check(f"circulation@{lam:.4f}", abs(circ - lam),
                            MASS_TOL))
    return checks


def check_geodesic(out: Path) -> list:
    meta = read_kv(out / "metadata.txt")
    d_lam = float(meta["c"]) / int(meta["lambda_nodes"])
    h = 2.0 * float(meta["radius"]) / int(meta["resolution"])
    return [
        # C5: slope consistency within one lam bin
        Check("slope_consistency_gap", float(meta["slope_consistency_gap"]),
              d_lam),
        Check("max_slice_residual", float(meta["max_slice_residual"]),
              RESIDUAL_H * h),
    ]


def check_foliate(out: Path) -> list:
    checks = []
    for _, lam_leaf, area, drift in read_rows(out / "areas.csv"):
        checks.append(Check(f"area@{lam_leaf:.4f}", abs(area - lam_leaf),
                            AREA_TOL))
        checks.append(Check(f"drift@{lam_leaf:.4f}", drift / lam_leaf,
                            DRIFT_REL_TOL))
    return checks


CHECKS = {"flow": check_flow, "geodesic": check_geodesic,
          "foliate": check_foliate}


def digest_and_bytes(out: Path):
    """sha256 over every output file (relative path and content, sorted)
    and the total number of bytes written."""
    sha = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        sha.update(str(path.relative_to(out)).encode())
        sha.update(data)
        total += len(data)
    return sha.hexdigest(), total
