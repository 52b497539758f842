"""Classical Euclidean tetrahedra: area vectors, closure, and reconstruction.

Vertices live in a fixed gauge: A at the origin, B = (a, 0, 0), C = (b, c, 0),
D = (d, e, f), which removes translations and rotations. Faces are labeled

    1 = ABC, 2 = ACD, 3 = ABD, 4 = BCD

and carry outward-oriented area vectors (half cross products pointing away
from the opposite vertex). Reconstruction checks that four face areas and two
dihedral cosines admit a tetrahedron (their area-vector Gram matrix is PSD of
rank 3), then solves for the six gauge parameters by damped least squares.
The solver, ``least_squares``, is a module attribute bound from scipy on first
access, so only a solve pays for importing ``scipy.optimize``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .tetrahedron import area_eigenvalue, independent_dihedral_expectations

RESIDUAL_ACCEPT = 1e-8
DEGENERACY_ATOL = 1e-12


def __getattr__(name: str):
    """Bind ``least_squares`` from scipy on first access (PEP 562)."""
    if name == "least_squares":
        from scipy.optimize import least_squares

        globals()[name] = least_squares
        return least_squares
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InfeasibleGeometryError(ValueError):
    """No tetrahedron matches the requested areas and angles."""

    def __init__(self, message: str, gram_eigenvalues):
        self.gram_eigenvalues = tuple(float(v) for v in gram_eigenvalues)
        listed = ", ".join(f"{v:.3e}" for v in self.gram_eigenvalues)
        super().__init__(f"{message} (Gram eigenvalues {listed})")


@dataclass(frozen=True)
class TetrahedronVertices:
    """Gauge-fixed vertices via the six parameters (a, b, c, d, e, f)."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e", "f"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"gauge parameter {name} must be finite, got {value}")
        if self.a == 0.0 or self.c == 0.0 or self.f == 0.0:
            raise ValueError("degenerate gauge parameters: a, c and f must be nonzero, "
                             f"got a={self.a}, c={self.c}, f={self.f}")

    @property
    def A(self) -> np.ndarray:
        return np.zeros(3)

    @property
    def B(self) -> np.ndarray:
        return np.array([self.a, 0.0, 0.0])

    @property
    def C(self) -> np.ndarray:
        return np.array([self.b, self.c, 0.0])

    @property
    def D(self) -> np.ndarray:
        return np.array([self.d, self.e, self.f])

    @property
    def vertices(self) -> np.ndarray:
        return np.stack([self.A, self.B, self.C, self.D])

    @property
    def params(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e, self.f])

    def edge_lengths(self) -> np.ndarray:
        """The six edge lengths, sorted ascending (a congruence invariant)."""
        v = self.vertices
        lengths = [
            np.linalg.norm(v[i] - v[j]) for i in range(4) for j in range(i + 1, 4)
        ]
        return np.sort(lengths)

    def volume(self) -> float:
        return abs(np.linalg.det(np.stack([self.B, self.C, self.D]))) / 6.0


# (corner, corner, corner, opposite vertex) index rows for faces 1..4
_FACES = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 1, 3, 2), (1, 2, 3, 0))


def _area_vectors_from_points(points) -> list[tuple[float, float, float]]:
    """Outward area vectors of faces 1..4 from four (x, y, z) float triples.

    Scalar arithmetic in numpy's operation order (``0.5 * np.cross``, centroid
    ``(pi + pj + pk) / 3``), so every component is bit-identical to the array
    form. The orientation dot is plain Python and may round differently from
    numpy's; only its sign is read, which agrees unless the opposite vertex
    lies within rounding of the face's plane.
    """
    out = []
    for i, j, k, opp in _FACES:
        (px, py, pz), (qx, qy, qz), (rx, ry, rz), (ox, oy, oz) = (
            points[i], points[j], points[k], points[opp])
        ux, uy, uz = qx - px, qy - py, qz - pz
        wx, wy, wz = rx - px, ry - py, rz - pz
        vx = 0.5 * (uy * wz - uz * wy)
        vy = 0.5 * (uz * wx - ux * wz)
        vz = 0.5 * (ux * wy - uy * wx)
        cx, cy, cz = (px + qx + rx) / 3.0, (py + qy + ry) / 3.0, (pz + qz + rz) / 3.0
        if vx * (cx - ox) + vy * (cy - oy) + vz * (cz - oz) < 0:
            vx, vy, vz = -vx, -vy, -vz
        out.append((vx, vy, vz))
    return out


def areas_from_vertices(tetra: TetrahedronVertices) -> np.ndarray:
    """Outward area vectors of a vertex-built tetrahedron, one read-only row per face."""
    points = tetra.vertices
    scale = max(np.abs(points).max(), 1.0)
    if tetra.volume() < 1e-10 * scale**3:
        raise ValueError("vertices are coplanar (zero volume)")
    areas = np.array(_area_vectors_from_points(points.tolist()))
    areas.setflags(write=False)
    return areas


def _residuals(x: np.ndarray, areas: np.ndarray, c12: float, c13: float) -> np.ndarray:
    a, b, c, d, e, f = x.tolist()
    vecs = _area_vectors_from_points(((0.0, 0.0, 0.0), (a, 0.0, 0.0), (b, c, 0.0), (d, e, f)))
    mags = [math.sqrt((vx * vx + vy * vy) + vz * vz) for vx, vy, vz in vecs]
    if any(m < 1e-12 for m in mags):
        return np.full(6, 1e6)
    # An interior cosine is -(n_i . n_j) of the outward normals. Face 1 lies in
    # the z = 0 plane, so n0 = (0, 0, +-1): each dot below has one nonzero
    # product and rounds once, as numpy's BLAS ``@`` does, FMA or not.
    n0, n1, n2 = ((vx / m, vy / m, vz / m) for (vx, vy, vz), m in zip(vecs[:3], mags))
    return np.array(
        [
            mags[0] - areas[0],
            mags[1] - areas[1],
            mags[2] - areas[2],
            mags[3] - areas[3],
            -(n0[0] * n1[0] + n0[1] * n1[1] + n0[2] * n1[2]) - c12,
            -(n0[0] * n2[0] + n0[1] * n2[1] + n0[2] * n2[2]) - c13,
        ]
    )


def _canonical_gauge(x: np.ndarray) -> np.ndarray:
    a, b, c, d, e, f = x
    sx, sy = (-1.0 if a < 0 else 1.0), (-1.0 if c < 0 else 1.0)  # reflect to a, c, f >= 0
    return np.array([sx * a, sx * b, sy * c, sx * d, sy * e, abs(f)])


def _gram_matrix(areas: np.ndarray, c12: float, c13: float) -> np.ndarray:
    """Gram matrix F_i . F_j of the area vectors; closure fixes F2 . F3 via |F4| = |F1+F2+F3|."""
    g = np.diag(areas[:3] ** 2)
    g[0, 1] = g[1, 0] = -areas[0] * areas[1] * c12
    g[0, 2] = g[2, 0] = -areas[0] * areas[2] * c13
    g[1, 2] = g[2, 1] = (areas[3] ** 2 - g.sum()) / 2
    closure = np.hstack([np.eye(3), -np.ones((3, 1))])  # F4 = -(F1 + F2 + F3)
    return closure.T @ g @ closure


def _gram_start(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Minkowski reconstruction: gauge parameters from the Gram matrix's factor F1..F4.

    A = 0, B = k F1xF3, C = -k F1xF2, D = -k F2xF3; k = 2/(3V), V = sqrt(2|F1.(F2xF3)|/9).
    """
    f1, f2, f3 = (eigenvectors[:, 1:] * np.sqrt(eigenvalues[1:]))[:3]
    k = 2.0 / (3.0 * np.sqrt(2.0 * abs(f1 @ np.cross(f2, f3)) / 9.0))
    edges = k * np.stack([np.cross(f1, f3), -np.cross(f1, f2), -np.cross(f2, f3)], axis=1)
    r = np.linalg.qr(edges, mode="r")  # rotates (B, C, D) into the gauge
    return r[[0, 0, 1, 0, 1, 2], [0, 1, 1, 2, 2, 2]]


def _solve(start: np.ndarray, areas: np.ndarray, c12: float, c13: float):
    """Canonical gauge parameters (None on a miss) and residual norm of one solve."""
    # Looked up on the module, so the first solve binds it and a rebinding
    # (a wrapper, a spy) is the one called.
    solver = sys.modules[__name__].least_squares
    result = solver(_residuals, start, args=(areas, c12, c13), method="lm",
                    xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400)
    params = _canonical_gauge(result.x)
    norm = float(np.linalg.norm(result.fun))
    if norm >= RESIDUAL_ACCEPT or np.any(params[[0, 2, 5]] < 1e-12):
        return None, norm  # missed, or converged to a flat configuration
    return params, norm


def reconstruct(areas, cos12: float, cos13: float) -> TetrahedronVertices:
    """Solve for the tetrahedron matching four areas and two dihedral cosines.

    One exists iff the area vectors' Gram matrix is PSD of rank 3. The solver
    starts from a regular tetrahedron and, if that misses, from the Gram one.

    Args:
        areas: the four face areas, in face-label order.
        cos12, cos13: target cosines of the interior dihedral angles between
            faces (1,2) and (1,3); the outward normals of those faces meet at
            the supplementary angle, whose cosine is the negation.

    Raises:
        ValueError: malformed input, non-finite values included.
        InfeasibleGeometryError: no tetrahedron exists, or neither start
            reached residual norm 1e-8; it carries the Gram eigenvalues, and
            a miss also names the best residual norm reached.
    """
    areas = np.asarray(areas, dtype=float)
    if areas.shape != (4,) or not np.all(np.isfinite(areas) & (areas > 0)):
        raise ValueError("need four positive finite face areas")
    for name, value in (("cos12", cos12), ("cos13", cos13)):
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {value}")

    eigenvalues, eigenvectors = np.linalg.eigh(_gram_matrix(areas, cos12, cos13))
    if eigenvalues[1] <= DEGENERACY_ATOL * eigenvalues[-1]:
        raise InfeasibleGeometryError("no tetrahedron: Gram matrix not PSD of rank 3", eigenvalues)

    # regular tetrahedron scaled to the mean requested area
    edge = np.sqrt(np.mean(areas) / (np.sqrt(3) / 4))
    x0 = edge * np.array([1.0, 0.5, np.sqrt(3) / 2, 0.5, np.sqrt(3) / 6, np.sqrt(6) / 3])
    params, norm = _solve(x0, areas, cos12, cos13)
    if params is None:
        params, gram_norm = _solve(_gram_start(eigenvalues, eigenvectors), areas, cos12, cos13)
        norm = min(norm, gram_norm)
    if params is None:
        raise InfeasibleGeometryError(
            f"solver missed the tetrahedron: best residual norm {norm:.3e} (a solve is "
            f"accepted below {RESIDUAL_ACCEPT:g}, with a, c and f above 1e-12)", eigenvalues)
    return TetrahedronVertices(*params)


def expectations_to_geometry(point) -> TetrahedronVertices:
    """Reconstruct the classical tetrahedron matching a Bloch point.

    All four areas are the sharp value sqrt(3/4) (units of 8*pi*l_P^2); the two
    dihedral targets are the interior expectations at the point.
    Infeasibility (some Bloch points have no classical counterpart) propagates
    as InfeasibleGeometryError.
    """
    c12, c13, _ = independent_dihedral_expectations(point)
    return reconstruct([area_eigenvalue()] * 4, c12, c13)
