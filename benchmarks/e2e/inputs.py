"""Seeded inputs: meshes, query boxes, motion and their expected answers.

Everything a run feeds the program is made here from ``--seed`` and cached
under ``benchmarks/e2e/.cache/``:

* meshes are generated once with the program's generators and stored as
  ``.npz``; runs hand the program a mesh freshly loaded from that file, so
  no connectivity is cached on it (``neuron_mesh()`` returns a mesh whose
  adjacency was already built during carving, which would hide the cold
  first query);
* box sides are calibrated once per mesh — the cube side whose median over
  fixed centres holds a given share of the vertices — and boxes are then
  re-centred on seeded vertices, so thousands of boxes generate in seconds;
* a box is kept only when :func:`~oracle.exactly_answerable` holds for it
  at the positions it will be asked at; the expected answer of every kept
  box is stored with it (as a digest), computed by :mod:`oracle`;
* the motion is the benchmark's own (:class:`WaveMotion`,
  :class:`TravellingBump`), shared by the generator and the runs, so the
  positions a run produces are bit-identical to the ones the answers were
  computed for.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from repro.core.delta import DeformationDelta
from repro.generators import earthquake_mesh, neuron_mesh
from repro.mesh import io as mesh_io
from repro.simulation.restructuring import periodic_restructuring

from .oracle import (
    BoxOracle,
    MeshFacts,
    digest,
    exactly_answerable,
    moved_answer,
    probe_seeds_every_piece,
)

#: bump when the generated inputs change meaning, so stale caches are ignored
INPUT_VERSION = 1

#: Figure 5 microbenchmarks: (queries per step min, max, selectivity min, max)
FIGURE5 = (
    (13, 17, 0.0011, 0.0016),
    (7, 9, 0.0002, 0.0014),
    (22, 22, 0.0018, 0.0018),
    (22, 22, 0.0012, 0.0012),
)
#: selectivity range of the churn and serve boxes (the span of Figure 5)
SELECTIVITY_RANGE = (0.0002, 0.0018)


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload (the full benchmark, or the self-test's smoke scale)."""

    monitor_mesh: tuple[str, int]
    monitor_steps: int
    churn_mesh: tuple[str, int]
    churn_steps: int
    churn_every: int
    churn_cells: int
    churn_queries: int
    serve_mesh: tuple[str, int]
    serve_requests: int
    #: client 1's operations run alone before the clients start (serve's first
    #: step); enough of them that the boxes a seed draws first do not set it
    serve_first: int
    serve_pool: int
    serve_subscriptions: int
    cold_meshes: tuple[tuple[str, int], ...]
    cold_steps: int
    min_episodes: int


FULL = Scale(
    monitor_mesh=("neuron", 56),
    monitor_steps=60,
    churn_mesh=("neuron", 35),
    churn_steps=40,
    churn_every=10,
    churn_cells=16,
    churn_queries=8,
    serve_mesh=("neuron", 42),
    serve_requests=200,
    serve_first=32,
    serve_pool=4096,
    serve_subscriptions=16,
    cold_meshes=(("neuron", 42), ("neuron", 56), ("earthquake", 34)),
    cold_steps=12,
    min_episodes=3,
)

SMOKE = Scale(
    monitor_mesh=("neuron", 14),
    monitor_steps=6,
    churn_mesh=("neuron", 14),
    churn_steps=6,
    churn_every=3,
    churn_cells=4,
    churn_queries=4,
    serve_mesh=("neuron", 14),
    serve_requests=12,
    serve_first=4,
    serve_pool=64,
    serve_subscriptions=4,
    cold_meshes=(("neuron", 14), ("earthquake", 8)),
    cold_steps=2,
    min_episodes=2,
)


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def _write_atomically(path: Path, write) -> None:
    """Write ``path`` through ``write(tmp_path)`` and move it into place, so an
    interrupted run never leaves half a file in the cache."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npz")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def mesh_file(cache: Path, mesh: tuple[str, int]) -> Path:
    """Path of a generated mesh's ``.npz``, generating it on first use."""
    kind, resolution = mesh
    path = cache / "meshes" / f"{kind}-{resolution}.npz"
    if not path.exists():
        generated = neuron_mesh(resolution) if kind == "neuron" else earthquake_mesh(resolution)
        _write_atomically(path, lambda tmp: mesh_io.save_mesh(generated, tmp))
    return path


def cached_inputs(cache: Path, name: str, seed: int, scale: Scale, make) -> dict:
    """Load a workload's per-seed inputs, generating and storing them on a miss."""
    tag = zlib.crc32(repr(scale).encode())
    path = cache / "inputs" / f"{name}-{tag:08x}-s{seed}-v{INPUT_VERSION}.npz"
    if path.exists():
        with np.load(path, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    arrays = make()
    _write_atomically(path, lambda tmp: np.savez(tmp, **arrays))
    return arrays


# ----------------------------------------------------------------------
# box sizes and filtered boxes
# ----------------------------------------------------------------------
class SideTable:
    """Cube side holding a given share of the vertices, calibrated once per mesh.

    For fixed centres (seeded independently of the run seed) the vertices'
    Chebyshev distances are sorted once; the side for selectivity ``s`` is
    twice the median, over centres, of the distance to the ``s * n``-th
    nearest vertex.
    """

    def __init__(self, points: np.ndarray, n_centres: int = 48, max_share: float = 0.004) -> None:
        rng = np.random.default_rng(12345)
        centres = points[rng.choice(points.shape[0], size=min(n_centres, points.shape[0]), replace=False)]
        keep = max(2, int(np.ceil(max_share * points.shape[0])) + 1)
        rows = []
        for centre in centres:
            distances = np.max(np.abs(points - centre), axis=1)
            rows.append(np.sort(np.partition(distances, keep)[: keep + 1]))
        self._medians = np.median(np.stack(rows), axis=0)
        self._n = points.shape[0]

    def side(self, selectivity: float) -> float:
        # the centre vertex itself is the nearest; two vertices keep the box non-degenerate
        k = min(max(2, int(round(selectivity * self._n))), self._medians.size)
        return 2.0 * float(self._medians[k - 1])


class BoxDrawer:
    """Draws boxes of a selectivity on seeded vertices, keeping only exact-able ones.

    ``walk=False`` keeps only boxes the surface probe seeds directly, for
    boxes that are asked at other positions than the drawing ones (greedy
    descent is a property of the whole path to the box, so it cannot be
    re-checked locally when the mesh moves).
    """

    def __init__(self, facts: MeshFacts, positions: np.ndarray, sides: SideTable,
                 walk: bool = True) -> None:
        self.facts = facts
        self.positions = positions
        self.oracle = BoxOracle(positions, facts.referenced)
        self.surface_points = positions[facts.surface_ids]
        self.centres = np.nonzero(facts.referenced)[0]
        self.sides = sides
        self.walk = walk
        self.rejected = 0

    def _keep(self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> bool:
        if self.walk:
            return exactly_answerable(self.facts, self.positions, self.surface_points, lo, hi, ids)
        return probe_seeds_every_piece(self.facts, ids)

    def draw(self, rng: np.random.Generator, selectivity: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, expected ids) of one kept box."""
        half = 0.5 * self.sides.side(selectivity)
        while True:
            centre = self.positions[self.centres[int(rng.integers(self.centres.size))]]
            # The meshes are carved from lattices and calibrated sides are lattice
            # multiples, so unjittered faces pass exactly through vertices, where a
            # one-ulp difference in how a layer stores positions flips membership.
            lo = centre - half * (1.0 + rng.uniform(1e-6, 1e-5, size=3))
            hi = centre + half * (1.0 + rng.uniform(1e-6, 1e-5, size=3))
            ids = self.oracle.query(lo, hi)
            if self._keep(lo, hi, ids):
                return lo, hi, ids
            self.rejected += 1


def figure5_selectivities(rng: np.random.Generator) -> list[float]:
    """Selectivities of the queries one Figure 5 A-D step issues."""
    out = []
    for q_min, q_max, s_min, s_max in FIGURE5:
        for _ in range(int(rng.integers(q_min, q_max + 1))):
            out.append(float(rng.uniform(s_min, s_max)))
    return out


class BoxSteps:
    """Per-step box batches with their expected-answer digests (flat arrays)."""

    def __init__(self) -> None:
        self.los: list[np.ndarray] = []
        self.his: list[np.ndarray] = []
        self.digests: list[int] = []
        self.offsets = [0]

    def add_step(self, boxes: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        for lo, hi, ids in boxes:
            self.los.append(lo)
            self.his.append(hi)
            self.digests.append(digest(ids))
        self.offsets.append(len(self.digests))

    def arrays(self) -> dict:
        return {
            "los": np.asarray(self.los, dtype=np.float64).reshape(-1, 3),
            "his": np.asarray(self.his, dtype=np.float64).reshape(-1, 3),
            "digests": np.asarray(self.digests, dtype=np.int64),
            "offsets": np.asarray(self.offsets, dtype=np.int64),
        }


# ----------------------------------------------------------------------
# motion (the simulation's side, outside the program under test)
# ----------------------------------------------------------------------
class WaveMotion:
    """A smooth whole-mesh travelling wave, ``z += A sin(k y - 2 pi (t + t0) / P)``.

    The wave moves vertices along ``z`` only and depends on ``y``, so a
    vertex's rest position is recoverable from its current one; that lets
    the wave carry on across cell splits (:meth:`restructure`), which append
    centroids computed from the deformed positions.
    """

    def __init__(self, mesh, phase0: int, amplitude: float = 0.01, period: int = 40,
                 restructuring=None) -> None:
        self.mesh = mesh
        self.base = mesh.vertices.copy()
        extents = self.base.max(axis=0) - self.base.min(axis=0)
        self.amp = amplitude * float(np.linalg.norm(extents))
        self.k = 2.0 * np.pi / (0.5 * max(float(extents[1]), 1e-9))
        self.period = period
        self.phase0 = phase0
        self.restructuring = restructuring

    def _phase(self, step: int) -> float:
        return 2.0 * np.pi * (step + self.phase0) / self.period

    def restructure(self, step: int):
        """Apply this step's restructuring (if any); returns its TopologyDelta or None."""
        if self.restructuring is None:
            return None
        n_before = self.mesh.n_vertices
        delta = self.restructuring(self.mesh, step)
        if delta is not None and self.mesh.n_vertices > n_before:
            added = self.mesh.vertices[n_before:].copy()
            added[:, 2] -= self.amp * np.sin(self.k * added[:, 1] - self._phase(step - 1))
            self.base = np.vstack([self.base, added])
        return delta

    def deform(self, step: int) -> DeformationDelta:
        """Move every vertex to its step-``step`` position; returns the full delta."""
        positions = self.base.copy()
        positions[:, 2] += self.amp * np.sin(self.k * self.base[:, 1] - self._phase(step))
        self.mesh.set_positions(positions)
        return DeformationDelta.full(self.mesh.n_vertices)


class TravellingBump:
    """A sparse, bounded, smooth deformation: a bump gliding between waypoints.

    At tick ``g`` the vertices within ``radius`` of the bump centre rise along
    ``z`` by ``height * (1 - (d / radius)^2)^2``; all others sit at rest.
    Positions are a function of ``g`` alone, so any tick's state can be
    recomputed exactly for checking, and a tick moves only the vertices of
    the previous and the current ball.
    """

    def __init__(self, base: np.ndarray, waypoints: np.ndarray, radius: float, height: float,
                 stride: float) -> None:
        self.base = base
        self.radius = radius
        self.height = height
        self._tree = cKDTree(base)
        legs = np.diff(np.vstack([waypoints, waypoints[:1]]), axis=0)
        self.waypoints = waypoints
        self._legs = legs
        self._lengths = np.linalg.norm(legs, axis=1)
        self._cumulative = np.concatenate([[0.0], np.cumsum(self._lengths)])
        self.stride = stride

    def centre(self, tick: int) -> np.ndarray:
        travelled = (tick * self.stride) % self._cumulative[-1]
        leg = int(np.searchsorted(self._cumulative, travelled, side="right") - 1)
        fraction = (travelled - self._cumulative[leg]) / max(self._lengths[leg], 1e-12)
        return self.waypoints[leg] + fraction * self._legs[leg]

    def ball(self, tick: int) -> np.ndarray:
        """Sorted ids displaced at ``tick`` (tick 0 is the rest state)."""
        if tick == 0:
            return np.empty(0, dtype=np.int64)
        ids = self._tree.query_ball_point(self.centre(tick), self.radius)
        return np.sort(np.asarray(ids, dtype=np.int64))

    def lift(self, ids: np.ndarray, tick: int) -> np.ndarray:
        """``z`` displacement of ``ids`` at ``tick``."""
        if tick == 0 or ids.size == 0:
            return np.zeros(ids.size)
        r2 = np.sum((self.base[ids] - self.centre(tick)) ** 2, axis=1) / self.radius**2
        return self.height * np.clip(1.0 - r2, 0.0, None) ** 2

    def positions_of(self, ids: np.ndarray, tick: int) -> np.ndarray:
        out = self.base[ids].copy()
        out[:, 2] += self.lift(ids, tick)
        return out

    def positions(self, tick: int) -> np.ndarray:
        out = self.base.copy()
        ids = self.ball(tick)
        out[ids, 2] += self.lift(ids, tick)
        return out

    def tick(self, mesh, tick: int) -> DeformationDelta:
        """Move ``mesh`` from tick ``tick - 1`` to ``tick``; returns the sparse delta."""
        moved = np.union1d(self.ball(tick - 1), self.ball(tick))
        old = self.positions_of(moved, tick - 1)
        new = self.positions_of(moved, tick)
        mesh.set_positions(self.positions(tick))
        return DeformationDelta.sparse(mesh.n_vertices, moved, old, new)


def bump_for(base: np.ndarray, rng: np.random.Generator, share: float = 0.016) -> TravellingBump:
    """A bump whose ball holds about ``share`` of the vertices, on seeded waypoints."""
    probe = base[np.random.default_rng(54321).choice(base.shape[0], size=min(32, base.shape[0]), replace=False)]
    k = max(2, int(round(share * base.shape[0])))
    radius = float(np.median([np.partition(np.linalg.norm(base - p, axis=1), k)[k] for p in probe]))
    waypoints = base[rng.choice(base.shape[0], size=16, replace=False)]
    return TravellingBump(base, waypoints, radius=radius, height=0.1 * radius, stride=0.5 * radius)


# ----------------------------------------------------------------------
# per-workload generators
# ----------------------------------------------------------------------
def _load(cache: Path, mesh: tuple[str, int]):
    return mesh_io.load_mesh(mesh_file(cache, mesh))


def restructuring_for(scale: Scale, seed: int):
    """The churn workload's seeded split/remove schedule."""
    return periodic_restructuring(
        every=scale.churn_every, kind="mixed", n_cells=scale.churn_cells, seed=seed * 7919
    )


def make_wave_steps(cache: Path, mesh_spec: tuple[str, int], seed: int, steps: int,
                    selectivities, restructuring=None) -> tuple[dict, int]:
    """Boxes for ``steps`` wave steps (optionally with restructuring) plus answers.

    Replays exactly the motion a run applies, step by step, so each step's
    boxes are filtered and answered at that step's positions and cells.
    """
    rng = np.random.default_rng([seed, 1])
    phase0 = int(rng.integers(0, 40))
    mesh = _load(cache, mesh_spec)
    facts = MeshFacts(mesh.n_vertices, mesh.cells)
    sides = SideTable(mesh.vertices[facts.referenced])
    motion = WaveMotion(mesh, phase0, restructuring=restructuring)
    out = BoxSteps()
    rejected = 0
    for step in range(1, steps + 1):
        if motion.restructure(step) is not None:
            facts = MeshFacts(mesh.n_vertices, mesh.cells)
        motion.deform(step)
        drawer = BoxDrawer(facts, mesh.vertices, sides)
        out.add_step([drawer.draw(rng, s) for s in selectivities(rng)])
        rejected += drawer.rejected
    arrays = out.arrays()
    arrays["phase0"] = np.asarray(phase0)
    return arrays, rejected


def monitor_inputs(cache: Path, seed: int, scale: Scale) -> dict:
    def make() -> dict:
        arrays, rejected = make_wave_steps(
            cache, scale.monitor_mesh, seed, scale.monitor_steps, figure5_selectivities
        )
        arrays["rejected"] = np.asarray(rejected)
        return arrays

    return cached_inputs(cache, "monitor", seed, scale, make)


def churn_inputs(cache: Path, seed: int, scale: Scale) -> dict:
    def make() -> dict:
        arrays, rejected = make_wave_steps(
            cache,
            scale.churn_mesh,
            seed,
            scale.churn_steps,
            lambda rng: list(rng.uniform(*SELECTIVITY_RANGE, size=scale.churn_queries)),
            restructuring=restructuring_for(scale, seed),
        )
        arrays["rejected"] = np.asarray(rejected)
        return arrays

    return cached_inputs(cache, "churn", seed, scale, make)


def cold_inputs(cache: Path, seed: int, scale: Scale) -> dict:
    def make() -> dict:
        arrays: dict = {}
        rejected = 0
        for index, mesh_spec in enumerate(scale.cold_meshes):
            part, part_rejected = make_wave_steps(
                cache, mesh_spec, seed * 31 + index, 1 + scale.cold_steps, figure5_selectivities
            )
            rejected += part_rejected
            arrays.update({f"m{index}_{key}": value for key, value in part.items()})
        arrays["rejected"] = np.asarray(rejected)
        return arrays

    return cached_inputs(cache, "cold-open", seed, scale, make)


def steady_under(bump: TravellingBump, facts: MeshFacts, los: np.ndarray, his: np.ndarray,
                 answers: list[np.ndarray], ticks: int) -> np.ndarray:
    """Which boxes the surface probe still seeds at every bump tick up to ``ticks``.

    Connectivity never changes under the bump, so a box can only lose that
    property at a tick that changes its in-box vertex set.
    """
    steady = np.ones(len(answers), dtype=bool)
    in_ball = np.zeros(facts.n_vertices, dtype=bool)
    for tick in range(1, ticks + 1):
        ball = bump.ball(tick)
        ball = ball[facts.referenced[ball]]
        if ball.size == 0:
            continue
        rest = bump.base[ball]
        moved = bump.positions_of(ball, tick)
        lo = np.minimum(rest.min(axis=0), moved.min(axis=0))
        hi = np.maximum(rest.max(axis=0), moved.max(axis=0))
        near = np.nonzero(steady & np.all(los <= hi, axis=1) & np.all(his >= lo, axis=1))[0]
        near_lo, near_hi = los[near][:, None, :], his[near][:, None, :]
        was_in = np.all((rest >= near_lo) & (rest <= near_hi), axis=2)
        now_in = np.all((moved >= near_lo) & (moved <= near_hi), axis=2)
        in_ball[ball] = True
        for box in near[np.any(was_in != now_in, axis=1)]:
            now = moved_answer(answers[box], ball, moved, in_ball, los[box], his[box])
            if now.size and not probe_seeds_every_piece(facts, now):
                steady[box] = False
        in_ball[ball] = False
    return steady


def serve_inputs(cache: Path, seed: int, scale: Scale) -> dict:
    """Box pool (with rest-state answers), subscriptions, per-client requests, bump."""

    def make() -> dict:
        rng = np.random.default_rng([seed, 2])
        mesh = _load(cache, scale.serve_mesh)
        facts = MeshFacts(mesh.n_vertices, mesh.cells)
        drawer = BoxDrawer(facts, mesh.vertices, SideTable(mesh.vertices[facts.referenced]), walk=False)
        drawn = [drawer.draw(rng, float(rng.uniform(*SELECTIVITY_RANGE))) for _ in range(scale.serve_pool)]
        los = np.asarray([lo for lo, _, _ in drawn])
        his = np.asarray([hi for _, hi, _ in drawn])
        answers = [ids for _, _, ids in drawn]
        bump = bump_for(mesh.vertices, rng)
        steady = steady_under(bump, facts, los, his, answers, scale.serve_requests)
        pool = np.nonzero(steady)[0]
        requests = []
        for _client in range(2):
            previous = rng.choice(pool, size=8, replace=False)
            rows = [previous]
            for _ in range(scale.serve_requests - 1):
                kept = rng.choice(previous, size=4, replace=False)
                fresh = rng.choice(pool, size=4, replace=False)
                previous = np.concatenate([kept, fresh])
                rows.append(previous)
            requests.append(np.stack(rows))
        return {
            "los": los,
            "his": his,
            "answer_ids": np.concatenate(answers).astype(np.int64),
            "answer_offsets": np.cumsum([0] + [a.size for a in answers]).astype(np.int64),
            "subscriptions": rng.choice(pool, size=scale.serve_subscriptions, replace=False),
            "requests": np.stack(requests),
            "waypoints": bump.waypoints,
            "bump": np.asarray([bump.radius, bump.height, bump.stride]),
            "rejected": np.asarray(drawer.rejected + int((~steady).sum())),
        }

    return cached_inputs(cache, "serve", seed, scale, make)


def bump_from(inputs: dict, base: np.ndarray) -> TravellingBump:
    radius, height, stride = (float(v) for v in inputs["bump"])
    return TravellingBump(base, inputs["waypoints"], radius=radius, height=height, stride=stride)
