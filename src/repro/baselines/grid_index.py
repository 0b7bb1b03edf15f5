"""Throwaway uniform-grid baseline.

A uniform grid rebuilt from scratch after every simulation step.  Shares the
:class:`~repro.core.uniform_grid.UniformGrid` structure with OCTOPUS-CON; the
difference is purely in the lifecycle — this baseline keeps the grid fresh and
answers queries from it directly, while OCTOPUS-CON lets it go stale and only
uses it to pick a crawl starting vertex.
"""

from __future__ import annotations

from ..core.uniform_grid import UniformGrid
from .index_executor import _ThrowawayIndexExecutor

__all__ = ["ThrowawayGridExecutor"]


class ThrowawayGridExecutor(_ThrowawayIndexExecutor):
    """Uniform grid rebuilt after every simulation step."""

    name = "grid"

    def __init__(self, resolution: int = 16) -> None:
        super().__init__()
        self.resolution = resolution

    def _new_index(self) -> UniformGrid:
        return UniformGrid(self.resolution)
