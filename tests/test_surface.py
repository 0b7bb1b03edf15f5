"""Tests for repro.mesh.surface (global face list and surface extraction)."""

import itertools
import re

import numpy as np
import pytest
from seed_families import parity_seed_family

from repro.errors import MeshConnectivityError
from repro.mesh.adjacency import row_keys
from repro.mesh.surface import cell_faces, extract_surface, sorted_faces

PARITY_SEEDS = parity_seed_family()


#: every order type of three values, ties included (one row per weak
#: ordering): by the 0-1 principle, a comparator network that sorts these
#: sorts every row
ORDER_TYPES = sorted(row for row in itertools.product(range(3), repeat=3) if set(row) == set(range(max(row) + 1)))


class TestCellFaces:
    def test_tetrahedron_has_four_faces(self):
        faces = cell_faces(np.array([[0, 1, 2, 3]]))
        assert faces.shape == (4, 3)

    def test_empty_cells(self):
        assert cell_faces(np.empty((0, 4))).shape[0] == 0

    # Only tetrahedra: triangles, hexahedra and any other width are refused.
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 8])
    def test_unsupported_arity(self, width):
        with pytest.raises(MeshConnectivityError, match=f"unsupported cell arity {width}"):
            cell_faces(np.arange(width).reshape(1, width))

    def test_cells_must_be_two_dimensional(self):
        with pytest.raises(MeshConnectivityError, match="2-D"):
            cell_faces(np.arange(4))


class TestSortedFaces:
    @pytest.mark.parametrize("order", ORDER_TYPES, ids=lambda row: "".join(map(str, row)))
    def test_sorts_every_order_type(self, order):
        # Spread the ranks far apart, past what 32 bits hold.
        row = np.array(order, dtype=np.int64) * 2**40 + 7
        got = sorted_faces(row[None, :])
        assert got.tolist() == [sorted(row.tolist())]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
    def test_keeps_the_dtype(self, dtype):
        faces = np.array([[5, 1, 3], [2, 2, 0], [9, 8, 9]], dtype=dtype)
        got = sorted_faces(faces)
        assert got.dtype == dtype
        assert np.array_equal(got, np.sort(faces, axis=1))

    def test_leaves_its_input_unchanged(self):
        faces = np.array([[3, 1, 2], [0, 5, 4]])
        before = faces.copy()
        sorted_faces(faces)
        assert np.array_equal(faces, before)

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_matches_row_sort(self, seed):
        rng = np.random.default_rng([seed, 3])
        for n_vertices in (1, 2, 3, 50, 2**40):
            # Few distinct ids force repeats within a row (ties in the network).
            faces = rng.integers(0, n_vertices, size=(500, 3))
            got = sorted_faces(faces)
            assert got.dtype == faces.dtype
            assert np.array_equal(got, np.sort(faces, axis=1))
        assert sorted_faces(np.empty((0, 3), dtype=np.int64)).shape == (0, 3)


class TestExtractSurface:
    def test_single_tetrahedron_all_vertices_on_surface(self):
        extraction = extract_surface(np.array([[0, 1, 2, 3]]))
        assert extraction.surface_vertices.tolist() == [0, 1, 2, 3]
        assert extraction.surface_faces.shape == (4, 3)
        assert extraction.n_faces_total == 4

    def test_two_tetrahedra_shared_face_is_interior(self):
        # Tets (0,1,2,3) and (1,2,3,4): face (1,2,3) is shared, hence interior.
        extraction = extract_surface(np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
        assert extraction.surface_faces.shape[0] == 6   # 8 faces total, 1 shared pair
        # All five vertices still touch at least one boundary face.
        assert extraction.surface_vertices.tolist() == [0, 1, 2, 3, 4]
        canonical = {tuple(sorted(f)) for f in extraction.surface_faces.tolist()}
        assert (1, 2, 3) not in canonical

    def test_structured_grid_interior_vertex_not_on_surface(self, grid_mesh):
        surface = grid_mesh.surface_vertices()
        # The 5x5x5-cube grid has 6^3 vertices; interior ones are 4^3.
        assert surface.size == 6**3 - 4**3
        interior = np.setdiff1d(np.arange(grid_mesh.n_vertices), surface)
        # Every interior vertex is strictly inside the unit cube.
        pts = grid_mesh.vertices[interior]
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    def test_surface_faces_are_on_boundary_of_grid(self, grid_mesh):
        extraction = grid_mesh.surface
        face_points = grid_mesh.vertices[extraction.surface_faces]
        # Every boundary face of the unit-cube grid lies in a plane x/y/z = 0 or 1.
        on_boundary = np.isclose(face_points, 0.0) | np.isclose(face_points, 1.0)
        assert np.all(on_boundary.any(axis=2).all(axis=1))

    def test_non_manifold_raises(self):
        # Three tetrahedra all sharing the same face (0,1,2).
        cells = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
        with pytest.raises(
            MeshConnectivityError,
            match=r"^non-manifold mesh: face \[0, 1, 2\] is shared by more than two cells$",
        ):
            extract_surface(cells)

    def test_empty_cells(self):
        extraction = extract_surface(np.empty((0, 4)))
        assert extraction.n_surface_vertices == 0
        assert extraction.n_faces_total == 0

    def test_surface_to_volume_ratio(self):
        extraction = extract_surface(np.array([[0, 1, 2, 3]]))
        assert extraction.surface_to_volume_ratio(4) == pytest.approx(1.0)
        assert extraction.surface_to_volume_ratio(8) == pytest.approx(0.5)
        with pytest.raises(MeshConnectivityError):
            extraction.surface_to_volume_ratio(0)

    def test_deformation_does_not_change_surface(self, grid_mesh):
        """The core OCTOPUS insight: the surface only depends on connectivity."""
        mesh = grid_mesh.copy()
        before = mesh.surface_vertices().copy()
        rng = np.random.default_rng(0)
        mesh.displace(rng.normal(scale=0.2, size=mesh.vertices.shape))
        # The cached extraction is untouched, and recomputing from the cells
        # gives the identical answer because positions never enter into it.
        assert np.array_equal(mesh.surface_vertices(), before)
        fresh = extract_surface(mesh.cells)
        assert np.array_equal(fresh.surface_vertices, before)


# ----------------------------------------------------------------------
# key build against the row-wise reference
# ----------------------------------------------------------------------
def reference_surface(cells):
    """The row-wise extraction the key build replaced: ``np.unique(axis=0)``."""
    faces = cell_faces(cells)
    canonical = np.sort(faces, axis=1)
    unique_faces, first_index, counts = np.unique(
        canonical, axis=0, return_index=True, return_counts=True
    )
    if np.any(counts > 2):
        bad = unique_faces[counts > 2][0]
        raise MeshConnectivityError(
            f"non-manifold mesh: face {bad.tolist()} is shared by more than two cells"
        )
    surface_faces = faces[first_index[counts == 1]]
    return np.unique(surface_faces), surface_faces, int(faces.shape[0])


def assert_same_surface(cells):
    """The key build equals the reference, or raises the reference's error."""
    try:
        vertices, faces, n_faces_total = reference_surface(cells)
    except MeshConnectivityError as expected:
        with pytest.raises(MeshConnectivityError, match=f"^{re.escape(str(expected))}$"):
            extract_surface(cells)
        return
    extraction = extract_surface(cells)
    assert extraction.surface_vertices.dtype == vertices.dtype
    assert np.array_equal(extraction.surface_vertices, vertices)
    assert extraction.surface_faces.dtype == faces.dtype
    assert np.array_equal(extraction.surface_faces, faces)
    assert extraction.n_faces_total == n_faces_total


def manifold_cells(rng, n_vertices, n_cells):
    """Random distinct-vertex tetrahedra plus repeats (some reordered) of a few.

    Over enough vertices random faces seldom meet, so most faces occur once
    or, in a repeated cell, twice: the counts a manifold mesh has.
    """
    cells = np.stack([rng.choice(n_vertices, size=4, replace=False) for _ in range(n_cells)])
    picks = rng.choice(n_cells, size=n_cells // 3, replace=False)
    repeats = cells[picks[: picks.size // 2]]
    reordered = np.roll(cells[picks[picks.size // 2:]], 1, axis=1)
    return rng.permutation(np.vstack([cells, repeats, reordered]))


class TestKeyBuildMatchesRowReference:
    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_random_cells(self, seed):
        rng = np.random.default_rng([seed, 4])
        for n_vertices in (400, 3000):
            assert_same_surface(manifold_cells(rng, n_vertices, 150))

    @pytest.mark.parametrize("seed", PARITY_SEEDS)
    def test_non_manifold_message_matches(self, seed):
        rng = np.random.default_rng([seed, 4, 1])
        cells = manifold_cells(rng, 500, 60)
        # A third copy of a cell puts each of its faces in three cells.
        cells = np.vstack([cells, cells[:1], cells[:1]])
        with pytest.raises(MeshConnectivityError) as expected:
            reference_surface(cells)
        with pytest.raises(MeshConnectivityError) as got:
            extract_surface(cells)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "fixture", ["grid_mesh", "neuron_small", "earthquake_small", "delaunay_small"]
    )
    def test_generator_meshes(self, fixture, request):
        assert_same_surface(request.getfixturevalue(fixture).cells)

    def test_triangle_faces_past_int64_take_the_row_path(self, grid_mesh):
        cells = grid_mesh.cells + 2**21
        assert row_keys(np.sort(cell_faces(cells), axis=1)) is None
        assert_same_surface(cells)

