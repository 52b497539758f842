"""Classical Euclidean tetrahedra: area vectors, closure, and reconstruction.

Vertices live in a fixed gauge: A at the origin, B = (a, 0, 0), C = (b, c, 0),
D = (d, e, f), which removes translations and rotations. Faces are labeled

    1 = ABC, 2 = ACD, 3 = ABD, 4 = BCD

and carry outward-oriented area vectors (half cross products pointing away
from the opposite vertex). Reconstruction solves the six constraints
(four face areas plus two dihedral cosines) for the six gauge parameters
with a damped least-squares iteration and random restarts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .tetrahedron import area_eigenvalue, independent_dihedral_expectations

RESIDUAL_ACCEPT = 1e-8
DEGENERACY_ATOL = 1e-12


class InfeasibleGeometryError(ValueError):
    """No tetrahedron matches the requested areas and angles."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


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
        if self.a == 0.0 or self.c == 0.0 or self.f == 0.0:
            raise ValueError("degenerate gauge parameters: a, c and f must be nonzero")

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


@dataclass(frozen=True, eq=False)
class AreaVectorSet:
    """Outward area vectors of the four faces, in face-label order."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=float)
        if arr.shape != (4, 3):
            raise ValueError(f"expected four 3-vectors, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.vectors, axis=1)


def closure_defect_classical(areas) -> float:
    """Norm of the summed area vectors; zero for any closed surface."""
    vectors = areas.vectors if isinstance(areas, AreaVectorSet) else np.asarray(areas, float)
    return float(np.linalg.norm(vectors.sum(axis=0)))


# (corner, corner, corner, opposite vertex) index rows for faces 1..4
_FACES = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 1, 3, 2), (1, 2, 3, 0))


def _area_vectors_from_points(points: np.ndarray) -> np.ndarray:
    out = np.empty((4, 3))
    for row, (i, j, k, opp) in enumerate(_FACES):
        vec = 0.5 * np.cross(points[j] - points[i], points[k] - points[i])
        centroid = (points[i] + points[j] + points[k]) / 3.0
        if vec @ (centroid - points[opp]) < 0:
            vec = -vec
        out[row] = vec
    return out


def areas_from_vertices(tetra: TetrahedronVertices) -> AreaVectorSet:
    """Outward area vectors of a vertex-built tetrahedron."""
    points = tetra.vertices
    scale = max(np.abs(points).max(), 1.0)
    if tetra.volume() < 1e-10 * scale**3:
        raise ValueError("vertices are coplanar (zero volume)")
    return AreaVectorSet(_area_vectors_from_points(points))


def _residuals(x: np.ndarray, areas: np.ndarray, c12: float, c13: float, sign: float) -> np.ndarray:
    points = np.array([[0.0, 0.0, 0.0], [x[0], 0.0, 0.0], [x[1], x[2], 0.0], x[3:6]])
    vecs = _area_vectors_from_points(points)
    mags = np.linalg.norm(vecs, axis=1)
    if np.any(mags < 1e-12):
        return np.full(6, 1e6)
    normals = vecs / mags[:, None]
    return np.array(
        [
            mags[0] - areas[0],
            mags[1] - areas[1],
            mags[2] - areas[2],
            mags[3] - areas[3],
            sign * (normals[0] @ normals[1]) - c12,
            sign * (normals[0] @ normals[2]) - c13,
        ]
    )


def _canonical_gauge(x: np.ndarray) -> np.ndarray:
    a, b, c, d, e, f = x
    if a < 0:  # reflect x -> -x
        a, b, d = -a, -b, -d
    if c < 0:  # reflect y -> -y
        c, e = -c, -e
    if f < 0:  # reflect z -> -z
        f = -f
    return np.array([a, b, c, d, e, f])


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(0 if rng is None else rng)


def reconstruct(
    areas,
    cos12: float,
    cos13: float,
    convention: str = "interior",
    rng=None,
    max_restarts: int = 32,
) -> TetrahedronVertices:
    """Solve for the tetrahedron matching four areas and two dihedral cosines.

    Args:
        areas: the four face areas, in face-label order.
        cos12, cos13: target cosines of the dihedral angles between faces
            (1,2) and (1,3); read per ``convention`` ("interior" measures the
            interior angle, "normals" the angle between outward normals).
        rng: seed or Generator driving the random restarts (default seed 0).
        max_restarts: solver starts tried, the first from a regular
            tetrahedron; the first accepted solution is returned.

    Raises:
        InfeasibleGeometryError: no restart reached residual norm 1e-8.
    """
    areas = np.asarray(areas, dtype=float)
    if areas.shape != (4,) or np.any(areas <= 0):
        raise ValueError("need four positive face areas")
    for name, value in (("cos12", cos12), ("cos13", cos13)):
        if abs(value) > 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {value}")
    if convention not in ("interior", "normals"):
        raise ValueError(f"unknown convention {convention!r}")
    sign = -1.0 if convention == "interior" else 1.0

    generator = _as_rng(rng)
    # regular tetrahedron scaled to the mean requested area
    edge = np.sqrt(np.mean(areas) / (np.sqrt(3) / 4))
    x0 = edge * np.array([1.0, 0.5, np.sqrt(3) / 2, 0.5, np.sqrt(3) / 6, np.sqrt(6) / 3])

    best_residual = np.inf
    for trial in range(max_restarts):
        start = x0 if trial == 0 else x0 * (1.0 + 0.6 * generator.standard_normal(6))
        try:
            result = least_squares(
                _residuals,
                start,
                args=(areas, cos12, cos13, sign),
                method="lm",
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
                max_nfev=400,
            )
        except Exception:
            continue
        residual = float(np.linalg.norm(result.fun))
        best_residual = min(best_residual, residual)
        if residual < RESIDUAL_ACCEPT:
            params = _canonical_gauge(result.x)
            if abs(params[0]) < 1e-12 or abs(params[2]) < 1e-12 or abs(params[5]) < 1e-12:
                continue  # converged to a flat configuration
            return TetrahedronVertices(*params)

    raise InfeasibleGeometryError("infeasible geometry", best_residual)


def expectations_to_geometry(point, rng=None) -> TetrahedronVertices:
    """Reconstruct the classical tetrahedron matching a Bloch point.

    All four areas are the sharp value sqrt(3/4) (units of 8*pi*l_P^2); the two
    dihedral targets are the interior-convention expectations at the point.
    Infeasibility (some Bloch points have no classical counterpart) propagates
    as InfeasibleGeometryError.
    """
    c12, c13, _ = independent_dihedral_expectations(point, "interior")
    area = area_eigenvalue()
    return reconstruct([area] * 4, c12, c13, convention="interior", rng=rng)
