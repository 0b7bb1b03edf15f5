"""Degenerate queries behave identically across every execution strategy.

Zero-volume boxes are valid (closed-box semantics), inverted or non-finite
boxes raise :class:`~repro.errors.QueryError` everywhere, and empty meshes
answer every query with an empty result — no strategy gets to pick its own
backend-specific behaviour for the edge cases.
"""

import numpy as np
import pytest

from repro.core.delta import DeformationDelta, TopologyDelta
from repro.errors import QueryError
from repro.experiments.harness import make_strategy
from repro.mesh import Box3D, TetrahedralMesh

ALL_STRATEGIES = (
    "octopus",
    "octopus-con",
    "linear-scan",
    "octree",
    "lur-tree",
    "qu-trade",
    "rum-tree",
)


def empty_mesh():
    return TetrahedralMesh(
        np.empty((0, 3), dtype=np.float64), np.empty((0, 4), dtype=np.int64), name="empty"
    )


def inverted_box():
    box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    box.lo[0] = 2.0  # Box3D validates at construction; callers can still mutate
    return box


def nan_box():
    box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    box.hi[1] = np.nan
    return box


@pytest.fixture(params=ALL_STRATEGIES)
def strategy_name(request):
    return request.param


class TestEmptyMesh:
    @pytest.mark.parametrize(
        "strategy_name, options",
        [(name, {}) for name in ALL_STRATEGIES]
        + [("octopus", {"surface_sample_fraction": 0.5})],  # samples zero of zero surface ids
        ids=[*ALL_STRATEGIES, "octopus-sampled"],
    )
    def test_lifecycle_and_queries_are_silently_empty(self, strategy_name, options):
        strategy = make_strategy(strategy_name, **options)
        strategy.prepare(empty_mesh())
        assert strategy.on_step(DeformationDelta.full(0)) >= 0.0
        assert strategy.on_restructure(TopologyDelta.full(0)) >= 0.0
        box = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        result = strategy.query(box)
        assert result.vertex_ids.size == 0
        assert result.vertex_ids.dtype == np.int64
        for batched in strategy.query_many([box, box]):
            assert batched.vertex_ids.size == 0


class TestZeroVolumeBox:
    def test_plane_query_agrees_with_linear_scan(self, strategy_name, grid_mesh):
        mesh = grid_mesh.copy()
        plane = Box3D((0.4, 0.0, 0.0), (0.4, 1.0, 1.0))
        expected = np.nonzero(np.isclose(mesh.vertices[:, 0], 0.4))[0].astype(np.int64)
        assert expected.size  # the lattice has a vertex plane at x=0.4
        strategy = make_strategy(strategy_name)
        strategy.prepare(mesh)
        assert np.array_equal(strategy.query(plane).vertex_ids, expected)

    def test_line_query_agrees_with_linear_scan(self, strategy_name, grid_mesh):
        column = _lattice_ids(grid_mesh, x=0.4, y=0.6)
        # The line runs through the column's stored coordinates exactly.
        x, y, _ = grid_mesh.vertices[column[0]]
        line = Box3D((x, y, 0.0), (x, y, 1.0))
        _assert_answers(strategy_name, grid_mesh, line, column)

    def test_point_query_finds_exactly_that_vertex(self, strategy_name, grid_mesh):
        (vertex,) = _lattice_ids(grid_mesh, x=0.6, y=0.2, z=0.4)
        point = Box3D(grid_mesh.vertices[vertex], grid_mesh.vertices[vertex])
        _assert_answers(strategy_name, grid_mesh, point, np.array([vertex]))

    def test_box_touching_a_mesh_corner_finds_the_corner(self, strategy_name, grid_mesh):
        # Closed boxes: a box meeting the mesh at one corner holds that vertex.
        touching = Box3D((-1.0, -1.0, -1.0), (0.0, 0.0, 0.0))
        _assert_answers(strategy_name, grid_mesh, touching, _lattice_ids(grid_mesh, x=0, y=0, z=0))

    def test_box_beyond_the_mesh_is_empty(self, strategy_name, grid_mesh):
        beyond = Box3D((1.0 + 1e-9, 0.0, 0.0), (2.0, 1.0, 1.0))
        _assert_answers(strategy_name, grid_mesh, beyond, np.empty(0, dtype=np.int64))


def _lattice_ids(mesh, **coordinates):
    """Ids of the vertices at the given x, y and/or z coordinates (some)."""
    mask = np.ones(mesh.n_vertices, dtype=bool)
    for axis, value in coordinates.items():
        mask &= np.isclose(mesh.vertices[:, "xyz".index(axis)], value)
    ids = np.nonzero(mask)[0].astype(np.int64)
    assert ids.size  # the lattice has vertices there
    return ids


def _assert_answers(strategy_name, mesh, box, expected):
    """A single query and a batch of one both answer ``box`` with ``expected``."""
    strategy = make_strategy(strategy_name)
    strategy.prepare(mesh.copy())
    assert np.array_equal(strategy.query(box).vertex_ids, expected)
    (batched,) = strategy.query_many([box])
    assert np.array_equal(batched.vertex_ids, expected)


class TestMalformedBoxes:
    @pytest.mark.parametrize("make_box", [inverted_box, nan_box])
    def test_query_raises_query_error(self, strategy_name, grid_mesh, make_box):
        strategy = make_strategy(strategy_name)
        strategy.prepare(grid_mesh.copy())
        with pytest.raises(QueryError):
            strategy.query(make_box())

    @pytest.mark.parametrize("make_box", [inverted_box, nan_box])
    def test_query_many_raises_query_error(self, strategy_name, grid_mesh, make_box):
        strategy = make_strategy(strategy_name)
        strategy.prepare(grid_mesh.copy())
        good = Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(QueryError):
            strategy.query_many([good, make_box()])
