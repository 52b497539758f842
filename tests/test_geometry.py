"""Classical tetrahedron construction, closure, and reconstruction."""

import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qtetra
from qtetra import geometry
from qtetra.geometry import (
    InfeasibleGeometryError,
    TetrahedronVertices,
    areas_from_vertices,
    expectations_to_geometry,
    reconstruct,
)
from qtetra.named_states import NAMED_POINTS
from qtetra.tetrahedron import BlochPoint, independent_dihedral_expectations


def regular_tetrahedron(edge: float = 1.0) -> TetrahedronVertices:
    return TetrahedronVertices(
        a=edge,
        b=edge / 2,
        c=edge * math.sqrt(3) / 2,
        d=edge / 2,
        e=edge * math.sqrt(3) / 6,
        f=edge * math.sqrt(6) / 3,
    )


def random_tetrahedron(rng) -> TetrahedronVertices:
    while True:
        params = [
            rng.uniform(0.5, 2.0),    # a
            rng.uniform(-0.5, 1.5),   # b
            rng.uniform(0.4, 2.0),    # c
            rng.uniform(-0.8, 1.8),   # d
            rng.uniform(-0.8, 1.8),   # e
            rng.uniform(0.4, 2.0),    # f
        ]
        tetra = TetrahedronVertices(*params)
        if tetra.volume() > 0.05:
            return tetra


class TestClosure:
    def test_vertex_built_tetrahedra_close(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            areas = areas_from_vertices(random_tetrahedron(rng))
            assert np.linalg.norm(areas.sum(axis=0)) < 1e-12

    def test_regular_closes(self):
        areas = areas_from_vertices(regular_tetrahedron())
        assert np.linalg.norm(areas.sum(axis=0)) < 1e-12


class TestAreasFromVertices:
    def test_regular_magnitudes_and_angles(self):
        areas = areas_from_vertices(regular_tetrahedron())
        mags = np.linalg.norm(areas, axis=1)
        assert np.allclose(mags, math.sqrt(3) / 4, atol=1e-12)
        normals = areas / mags[:, None]
        for i in range(4):
            for j in range(i + 1, 4):
                assert normals[i] @ normals[j] == pytest.approx(-1 / 3, abs=1e-12)

    def test_returns_read_only_rows(self):
        areas = areas_from_vertices(regular_tetrahedron())
        assert areas.shape == (4, 3)
        assert not areas.flags.writeable

    def test_corner_tetrahedron_face_bcd(self):
        tetra = TetrahedronVertices(a=1.0, b=0.0, c=1.0, d=0.0, e=0.0, f=1.0)
        areas = areas_from_vertices(tetra)
        # face 4 = BCD of the unit corner tetrahedron has area sqrt(3)/2
        assert np.linalg.norm(areas, axis=1)[3] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_outward_orientation(self):
        tetra = regular_tetrahedron()
        areas = areas_from_vertices(tetra)
        centroid = tetra.vertices.mean(axis=0)
        face_centroids = [
            (tetra.A + tetra.B + tetra.C) / 3,
            (tetra.A + tetra.C + tetra.D) / 3,
            (tetra.A + tetra.B + tetra.D) / 3,
            (tetra.B + tetra.C + tetra.D) / 3,
        ]
        for vec, fc in zip(areas, face_centroids):
            assert vec @ (fc - centroid) > 0

    def test_coplanar_rejected(self):
        flat = TetrahedronVertices(a=1.0, b=0.5, c=1.0, d=0.2, e=0.7, f=1e-13)
        with pytest.raises(ValueError):
            areas_from_vertices(flat)

    def test_degenerate_gauge_rejected(self):
        with pytest.raises(ValueError):
            TetrahedronVertices(a=0.0, b=0.5, c=1.0, d=0.2, e=0.7, f=1.0)

    def test_degenerate_gauge_names_the_parameters(self):
        with pytest.raises(ValueError, match="must be nonzero, got a=1.0, c=-0.0, f=2.5"):
            TetrahedronVertices(a=1.0, b=0.5, c=-0.0, d=0.2, e=0.7, f=2.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_parameter_named(self, value):
        with pytest.raises(ValueError, match=f"gauge parameter e must be finite, got {value}"):
            TetrahedronVertices(a=1.0, b=0.5, c=1.0, d=0.2, e=value, f=1.0)


def measured_inputs(tetra: TetrahedronVertices):
    """Areas plus interior cosines for the (1,2) and (1,3) face pairs."""
    areas = areas_from_vertices(tetra)
    mags = np.linalg.norm(areas, axis=1)
    normals = areas / mags[:, None]
    cos12 = -(normals[0] @ normals[1])
    cos13 = -(normals[0] @ normals[2])
    return mags, cos12, cos13


def assert_matches_targets(tetra: TetrahedronVertices, point: BlochPoint) -> None:
    """Face areas sqrt(3/4) and the point's interior cosines, within 1e-8."""
    mags, cos12, cos13 = measured_inputs(tetra)
    c12, c13, _ = independent_dihedral_expectations(point)
    assert np.abs(mags - math.sqrt(0.75)).max() < 1e-8
    assert cos12 == pytest.approx(c12, abs=1e-8)
    assert cos13 == pytest.approx(c13, abs=1e-8)


class TestReconstruct:
    def test_regular_from_unit_areas(self):
        tetra = reconstruct([1.0, 1.0, 1.0, 1.0], 1 / 3, 1 / 3)
        edges = tetra.edge_lengths()
        # unit face area means edge length 2 / 3^(1/4)
        expected = 2.0 / 3.0**0.25
        assert np.abs(edges - expected).max() < 1e-8

    def test_round_trip_congruence(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            original = random_tetrahedron(rng)
            mags, cos12, cos13 = measured_inputs(original)
            recovered = reconstruct(mags, cos12, cos13)
            assert np.abs(recovered.edge_lengths() - original.edge_lengths()).max() < 1e-8

    def test_closure_violating_areas_are_infeasible(self):
        with pytest.raises(InfeasibleGeometryError) as excinfo:
            reconstruct([1.0, 1.0, 1.0, 10.0], 1 / 3, 1 / 3)
        assert min(excinfo.value.gram_eigenvalues) < -1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            reconstruct([1.0, 1.0, 1.0], 0.3, 0.3)
        with pytest.raises(ValueError):
            reconstruct([1.0, 1.0, 1.0, 1.0], 1.2, 0.3)

    @pytest.mark.parametrize(
        "areas, cos12, cos13",
        [
            ([1.0, 1.0, math.nan, 1.0], 0.3, 0.3),
            ([1.0, math.inf, 1.0, 1.0], 0.3, 0.3),
            ([1.0, 1.0, 1.0, 1.0], math.nan, 0.3),
            ([1.0, 1.0, 1.0, 1.0], 0.3, math.nan),
        ],
        ids=["nan-area", "inf-area", "nan-cos12", "nan-cos13"],
    )
    def test_non_finite_input_rejected(self, areas, cos12, cos13):
        with pytest.raises(ValueError) as excinfo:
            reconstruct(areas, cos12, cos13)
        assert not isinstance(excinfo.value, InfeasibleGeometryError)

    def test_each_input_changes_the_shape(self):
        base = TetrahedronVertices(a=1.1, b=0.3, c=0.9, d=0.25, e=0.45, f=0.8)
        mags, cos12, cos13 = measured_inputs(base)
        baseline = reconstruct(mags, cos12, cos13).edge_lengths()
        inputs = list(mags) + [cos12, cos13]
        for i in range(6):
            bumped = list(inputs)
            bumped[i] += 1e-4
            recovered = reconstruct(bumped[:4], bumped[4], bumped[5])
            assert np.abs(recovered.edge_lengths() - baseline).max() > 1e-6

    def test_regular_inputs_give_regular_edges(self):
        tetra = reconstruct([1.0, 1.0, 1.0, 1.0], 1 / 3, 1 / 3)
        expected = 2.0 / 3.0**0.25
        assert np.abs(tetra.edge_lengths() - expected).max() < 1e-8

    def test_canonical_gauge_signs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            original = random_tetrahedron(rng)
            mags, cos12, cos13 = measured_inputs(original)
            recovered = reconstruct(mags, cos12, cos13)
            assert recovered.a > 0 and recovered.c > 0 and recovered.f > 0

    def test_solver_miss_names_the_best_residual_norm(self, monkeypatch):
        # a solver that stops short from both starts, the Gram start the closer
        misses = iter([np.full(6, 1e-3), np.array([3e-6, 0.0, 0.0, 4e-6, 0.0, 0.0])])

        def stalled(fun, x0, **kwargs):
            return SimpleNamespace(x=x0, fun=next(misses))

        monkeypatch.setattr(geometry, "least_squares", stalled)
        with pytest.raises(InfeasibleGeometryError, match="best residual norm 5.000e-06"):
            expectations_to_geometry(BlochPoint(1.1, 0.7))


class TestExpectationsToGeometry:
    def test_regular_point_gives_regular_tetrahedron(self):
        tetra = expectations_to_geometry(BlochPoint(math.pi / 2, 3 * math.pi / 2))
        edges = tetra.edge_lengths()
        assert (edges.max() - edges.min()) < 1e-8
        areas = areas_from_vertices(tetra)
        assert np.abs(np.linalg.norm(areas, axis=1) - math.sqrt(0.75)).max() < 1e-8

    def test_north_pole_is_degenerate(self):
        # <cos12> = 1 there: faces 1 and 2 would have to be coplanar
        start = time.perf_counter()
        with pytest.raises(InfeasibleGeometryError) as excinfo:
            expectations_to_geometry(BlochPoint(0.0, 0.0))
        assert time.perf_counter() - start < 1.0
        eigenvalues = excinfo.value.gram_eigenvalues
        assert len(eigenvalues) == 4
        assert sum(abs(v) < 1e-12 for v in eigenvalues) == 2
        assert "Gram eigenvalues" in str(excinfo.value)

    @pytest.mark.parametrize(
        "theta, phi",
        [(5e-4, 1.0), (2 * math.pi / 3 + 0.01, math.pi)],
        ids=["pole-band", "near-singular-cos14"],
    )
    def test_near_singular_points_reconstruct(self, theta, phi):
        # a tetrahedron exists here; a solve from the regular start misses it
        point = BlochPoint(theta, phi)
        start = time.perf_counter()
        tetra = expectations_to_geometry(point)
        assert time.perf_counter() - start < 5.0
        assert_matches_targets(tetra, point)

    def test_generic_point_round_trips(self):
        point = BlochPoint(4 * math.pi / 5, 0.0)
        assert_matches_targets(expectations_to_geometry(point), point)


def fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this qtetra."""
    src = str(Path(qtetra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


class TestImportSurface:
    """The package root is a docstring and a version; the CLI loads the package's eight modules."""

    def test_root_import_loads_no_submodule_and_no_numpy(self):
        out = fresh_python(
            "import sys, qtetra\n"
            "print(sorted(n for n in vars(qtetra) if not n.startswith('__')),\n"
            "      sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'\n"
            "             or m.startswith('qtetra.')))"
        )
        assert out == "[] []\n"

    def test_cli_import_loads_eight_modules_and_no_scipy(self):
        out = fresh_python(
            "import sys, qtetra.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('qtetra', 'scipy')))"
        )
        modules = ["qtetra"] + [f"qtetra.{m}" for m in (
            "amplitude", "cli", "geometry", "named_states", "spin_algebra", "tetrahedron",
            "tomography")]
        assert out == f"{modules}\n"


class TestLazySolverImport:
    """scipy is imported at the first solve; the solver is the module attribute."""

    def test_cli_import_leaves_scipy_unloaded(self):
        out = fresh_python(
            "import sys, qtetra, qtetra.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        )
        assert out == "[]\n"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
    def test_hot_loops_reuse_heap_memory_without_scipy(self):
        # glibc maps every block above its 128 KB mmap threshold afresh, so a
        # hot-loop temporary that large page-faults on every call. The
        # contraction's and the tomography's temporaries must stay below it
        # on their own, not because an import (scipy's once did) raised it.
        out = fresh_python(
            "import resource, sys\n"
            "from qtetra import amplitude, tomography\n"
            "from qtetra.tetrahedron import BlochPoint, bloch_state\n"
            "states = [bloch_state(BlochPoint(0.3 * k + 0.2, 1.1 * k)) for k in range(5)]\n"
            "target = {'X': BlochPoint(1.0, 2.0)}\n"
            "def loop():\n"
            "    for _ in range(10):\n"
            "        amplitude.vertex_amplitude(states, amplitude.cyclic_k5())\n"
            "        tomography.simulate_experiment(targets=target)\n"
            "loop()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "loop()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,\n"
            "      'scipy' in sys.modules)"
        )
        faults, scipy_loaded = out.split()
        assert scipy_loaded == "False"
        assert int(faults) < 50  # ~3,500 when every temporary is a fresh mapping

    def test_first_access_binds_scipy_least_squares(self):
        import scipy.optimize

        assert geometry.least_squares is scipy.optimize.least_squares
        assert vars(geometry)["least_squares"] is scipy.optimize.least_squares

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_solver"):
            geometry.no_such_solver

    def test_solve_calls_the_bound_attribute(self, monkeypatch):
        solver = geometry.least_squares
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return solver(*args, **kwargs)

        monkeypatch.setattr(geometry, "least_squares", spy)
        point = BlochPoint(1.1, 0.7)
        assert_matches_targets(expectations_to_geometry(point), point)
        assert len(calls) == 1


# The array form of the area vectors and residuals, kept verbatim as the
# reference the scalar form in ``qtetra.geometry`` must match bit for bit.
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


def assert_same_bits(new: np.ndarray, ref: np.ndarray) -> None:
    """Equal dtype, shape and bytes: every bit, signed zeros included."""
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes(), (new, ref)


def near(rng, theta0: float, phi0: float, count: int) -> list[BlochPoint]:
    """Points within 0.05 rad of (theta0, phi0), in both angles."""
    return [
        BlochPoint(
            theta0 + rng.uniform(-0.05, 0.05),
            (phi0 + rng.uniform(-0.05, 0.05)) % (2 * math.pi),
        )
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def solver_calls():
    """Every ``_residuals`` call the solver makes on a seeded set of Bloch points."""
    rng = np.random.default_rng(6)
    points = [
        BlochPoint(math.acos(1 - 2 * rng.uniform()), rng.uniform(0, 2 * math.pi)) for _ in range(8)
    ]
    points += [BlochPoint(rng.uniform(1e-4, 1e-3), rng.uniform(0, 2 * math.pi)) for _ in range(2)]
    points += [BlochPoint(rng.uniform(1e-3, 0.05), rng.uniform(0, 2 * math.pi)) for _ in range(2)]
    points += near(rng, 2 * math.pi / 3, 0.0, 2) + near(rng, 2 * math.pi / 3, math.pi, 2)
    points += [point for name, point in NAMED_POINTS.items() if name != "A0"]

    calls = []
    residuals = geometry._residuals

    def spy(x, areas, c12, c13):
        calls.append((x.copy(), areas.copy(), c12, c13))
        return residuals(x, areas, c12, c13)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_residuals", spy)
        for point in points:
            expectations_to_geometry(point)
    return calls


class TestScalarResidualsBitIdentical:
    def test_every_solver_call(self, solver_calls):
        assert len(solver_calls) > 5000
        for x, areas, c12, c13 in solver_calls:
            assert_same_bits(
                geometry._residuals(x, areas, c12, c13), _residuals(x, areas, c12, c13, -1.0)
            )

    def test_reflected_gauges(self):
        rng = np.random.default_rng(11)
        areas = rng.uniform(0.5, 2.0, 4)
        for _ in range(300):
            x = rng.normal(size=6) * rng.choice([1e-3, 1.0, 1e3])
            negative = rng.permutation([0, 2, 5])[: rng.integers(1, 4)]  # one to three of a, c, f
            x[negative] = -np.abs(x[negative])
            c12, c13 = rng.uniform(-1.0, 1.0, 2)
            assert_same_bits(
                geometry._residuals(x, areas, c12, c13), _residuals(x, areas, c12, c13, -1.0)
            )

    @pytest.mark.parametrize(
        "x",
        [
            [0.0, 0.5, 1.0, 0.2, 0.7, 1.0],  # B = A: faces 1 and 3 vanish
            [1.0, 0.5, 0.0, 0.3, 0.0, 0.0],  # all four vertices on the x axis
            [1.0, 2.0, 0.0, 0.2, 0.7, 1.0],  # A, B, C collinear
        ],
    )
    def test_flat_configurations(self, x):
        x = np.array(x)
        areas = np.full(4, math.sqrt(0.75))
        ref = _residuals(x, areas, 1 / 3, 1 / 3, -1.0)
        assert np.array_equal(ref, np.full(6, 1e6))
        assert_same_bits(geometry._residuals(x, areas, 1 / 3, 1 / 3), ref)

    def test_area_vectors_of_random_tetrahedra(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tetra = random_tetrahedron(rng)
            assert_same_bits(
                areas_from_vertices(tetra), _area_vectors_from_points(tetra.vertices)
            )
