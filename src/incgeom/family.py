"""Finite families of points or hyperplanes at a fixed scale delta, and the
plain-text file format used to exchange them.

File format: a header line `#points dim=<d> delta=<float>` (or
`#hyperplanes ...`), then one element per line as d space-separated
decimals with 17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .geometry import check_plane_coeffs

KINDS = ("points", "hyperplanes")

# Families nominally live in B(0,1), but the product-grid constructions fill
# [0,1]^d whose corners sit at norm sqrt(d); the validator allows that plus
# a 10*delta neighborhood slack.
POINT_NORM_SLACK = 10.0

_HEADER_RE = re.compile(
    r"^#(points|hyperplanes)\s+dim=(\d+)\s+delta=([0-9.eE+-]+)\s*$"
)


@dataclass(frozen=True)
class Family:
    """A delta-annotated collection of points or hyperplanes.

    `elements` is an (n, dim) float64 array, one element per row; for
    hyperplanes a row holds the coefficient vector (a_1..a_d).  `meta` may
    carry claimed regularity parameters (s, C) and construction notes.
    """

    kind: str
    elements: np.ndarray
    delta: float
    dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected {KINDS}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        arr = np.array(self.elements, dtype=np.float64, copy=True)
        if arr.size == 0:
            arr = arr.reshape(0, self.dim)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(
                f"elements must form an (n, {self.dim}) array, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    def __len__(self):
        return self.elements.shape[0]

    def validate(self):
        """Check the member invariants, raising ValueError on the first failure.

        Points: finite coordinates, norm <= sqrt(dim) + 10*delta.  Planes:
        slope cap and intersection with B(0,1).  Both: pairwise distinct rows.
        Bounds are checked within 1e-9.
        """
        arr = self.elements
        if not np.all(np.isfinite(arr)):
            i = int(np.nonzero(~np.isfinite(arr).all(axis=1))[0][0])
            raise ValueError(f"element {i}: non-finite coordinate")
        if self.kind == "points":
            bound = math.sqrt(self.dim) + POINT_NORM_SLACK * self.delta
            norms = np.sqrt(np.sum(arr * arr, axis=1))
            far = np.nonzero(norms > bound + 1e-9)[0]
            if far.size:
                i = int(far[0])
                raise ValueError(
                    f"point {i}: norm {norms[i]:.6g} exceeds the family bound {bound:.6g}"
                )
        else:
            check_plane_coeffs(arr)
        if len(self) > 1:
            distinct = np.unique(arr, axis=0).shape[0]
            if distinct != len(self):
                raise ValueError(
                    f"elements are not pairwise distinct ({len(self) - distinct} duplicate rows)"
                )
        return self


def write_family(fam: Family, path):
    """Write the text format; 17 significant digits per coordinate."""
    with open(path, "w") as fh:
        fh.write(f"#{fam.kind} dim={fam.dim} delta={fam.delta!r}\n")
        for row in fam.elements:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_family(path, validate=True) -> Family:
    """Parse a family file; errors carry the offending line number."""
    with open(path) as fh:
        lines = fh.readlines()

    header_no = None
    header = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header_no, header = lineno, raw.strip()
            break
    if header is None:
        raise ValueError(f"{path}: empty file, expected a family header")
    m = _HEADER_RE.match(header)
    if m is None:
        raise ValueError(
            f"{path}:{header_no}: malformed header {header!r}; expected "
            "'#points dim=<d> delta=<float>' or '#hyperplanes ...'"
        )
    kind = m.group(1)
    dim = int(m.group(2))
    try:
        delta = float(m.group(3))
    except ValueError:
        raise ValueError(f"{path}:{header_no}: unreadable delta {m.group(3)!r}") from None
    if not (0.0 < delta < 1.0):
        raise ValueError(f"{path}:{header_no}: delta must lie in (0, 1), got {delta!r}")

    rows = []
    row_lines = []
    for lineno, raw in enumerate(lines, start=1):
        if lineno <= header_no or not raw.strip():
            continue
        fields = raw.split()
        if len(fields) != dim:
            raise ValueError(
                f"{path}:{lineno}: expected {dim} fields, found {len(fields)}"
            )
        try:
            rows.append([float(tok) for tok in fields])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unreadable coordinate in {raw.strip()!r}") from None
        row_lines.append(lineno)

    arr = np.array(rows, dtype=np.float64) if rows else np.empty((0, dim))
    fam = Family(kind=kind, elements=arr, delta=delta, dim=dim)
    if validate and rows:
        try:
            fam.validate()
        except ValueError as exc:
            idx = _leading_index(str(exc))
            if idx is not None and idx < len(row_lines):
                raise ValueError(f"{path}:{row_lines[idx]}: {exc}") from None
            raise ValueError(f"{path}: {exc}") from None
    return fam


def _leading_index(message):
    m = re.match(r"^(?:point|plane|element)\s+(\d+):", message)
    return int(m.group(1)) if m else None
