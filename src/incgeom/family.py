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

from .geometry import RowError, check_plane_coeffs, distinct_rows

KINDS = ("points", "hyperplanes")

# Families nominally live in B(0,1), but the product-grid constructions fill
# [0,1]^d whose corners sit at norm sqrt(d); the validator allows that plus
# a 10*delta neighborhood slack.
POINT_NORM_SLACK = 10.0

_HEADER_RE = re.compile(
    r"^#(points|hyperplanes)\s+dim=(\d+)\s+delta=([0-9.eE+-]+)\s*$"
)


def require_int(name, value, minimum=1):
    """Refuse anything but an integer (bools excluded) >= `minimum`; return it as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_kind(kind):
    """Refuse a family kind outside `KINDS`."""
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected {KINDS}")


def require_delta(delta):
    """Refuse a scale outside the open interval (0, 1), NaN included."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


def require_exponent(name, value, dim):
    """Refuse an exponent outside [0, dim], NaN included."""
    if not 0.0 <= value <= dim:
        raise ValueError("exponent {} must lie in [0, {}], got {}".format(name, dim, value))


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
        require_kind(self.kind)
        object.__setattr__(self, "dim", require_int("dimension", self.dim, minimum=2))
        require_delta(self.delta)
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
        """Check the member invariants, raising RowError on the first failure.

        Points: finite coordinates, norm <= sqrt(dim) + 10*delta.  Planes:
        slope cap and intersection with B(0,1).  Both: pairwise distinct rows.
        Bounds are checked within 1e-9.
        """
        arr = self.elements
        if not np.all(np.isfinite(arr)):
            i = int(np.nonzero(~np.isfinite(arr).all(axis=1))[0][0])
            raise RowError(i, f"element {i}: non-finite coordinate")
        if self.kind == "points":
            bound = math.sqrt(self.dim) + POINT_NORM_SLACK * self.delta
            norms = np.sqrt(np.sum(arr * arr, axis=1))
            far = np.nonzero(norms > bound + 1e-9)[0]
            if far.size:
                i = int(far[0])
                raise RowError(
                    i, f"point {i}: norm {norms[i]:.6g} exceeds the family bound {bound:.6g}"
                )
        else:
            check_plane_coeffs(arr)
        first, inverse, _ = distinct_rows(arr)
        if first.size != len(self):
            i = int(np.flatnonzero(first[inverse] != np.arange(len(self)))[0])
            raise RowError(
                i, f"element {i}: repeats element {first[inverse[i]]}; elements are not "
                f"pairwise distinct ({len(self) - first.size} duplicate rows)"
            )
        return self


def write_family(fam: Family, path):
    """Write the text format; 17 significant digits per coordinate."""
    with open(path, "w") as fh:
        fh.write(f"#{fam.kind} dim={fam.dim} delta={fam.delta!r}\n")
        np.savetxt(fh, fam.elements, fmt="%.17g")


def read_family(path) -> Family:
    """Parse and validate a family file; errors carry the offending line number."""
    with open(path) as fh:
        lines = [(lineno, text) for lineno, raw in enumerate(fh, start=1) if (text := raw.strip())]
    if not lines:
        raise ValueError(f"{path}: empty file, expected a family header")
    (header_no, header), rows = lines[0], lines[1:]
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

    elements = []
    for lineno, text in rows:
        fields = text.split()
        if len(fields) != dim:
            raise ValueError(f"{path}:{lineno}: expected {dim} fields, found {len(fields)}")
        try:
            elements.extend(map(float, fields))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unreadable coordinate in {text!r}") from None
    arr = np.array(elements, dtype=np.float64).reshape(len(rows), dim)
    try:
        return Family(kind=kind, elements=arr, delta=delta, dim=dim).validate()
    except RowError as exc:
        raise ValueError(f"{path}:{rows[exc.row][0]}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}:{header_no}: {exc}") from None
