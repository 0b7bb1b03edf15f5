"""Dataset registry for the evaluation.

The paper's datasets (Figures 4, 8 and 14) are far too large for a pure-Python
reproduction, so every experiment here runs on scaled-down versions generated
by :mod:`repro.generators`.  The registry centralises the scaled sizes so all
benchmarks agree on them, and caches the generated meshes within a process
(generation is deterministic, so results are reproducible across processes
too).

Four size profiles are provided:

* ``tiny``   — for unit tests and smoke runs (seconds);
* ``small``  — the default benchmark profile (a few minutes for the full suite);
* ``medium`` — closer to the paper's relative spreads, for longer runs;
* ``large``  — the scale profile, topping out above one million vertices
  (mesh generation alone takes minutes; meant for the scale benchmarks).
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import ExperimentError
from ..generators import (
    AnimationSequence,
    animation_suite,
    earthquake_mesh,
    neuron_dataset_series,
    neuron_mesh,
)
from ..mesh import TetrahedralMesh

__all__ = [
    "PROFILES",
    "neuron_series",
    "neuron_largest",
    "earthquake_pair",
    "animation_sequences",
]

#: per-profile generator parameters
PROFILES: dict[str, dict] = {
    "tiny": {
        "neuron_resolutions": (10, 12, 14, 16, 18),
        "earthquake_resolutions": (8, 12),
        "animation_scale": 0.4,
    },
    "small": {
        "neuron_resolutions": (14, 18, 24, 32, 42),
        "earthquake_resolutions": (10, 16),
        "animation_scale": 0.8,
    },
    "medium": {
        "neuron_resolutions": (20, 28, 38, 52, 70),
        "earthquake_resolutions": (14, 26),
        "animation_scale": 1.0,
    },
    # The scale profile: the top resolution carves a neuron mesh of
    # ~1.12M vertices (≥ the paper's production scale in vertex count).
    # Generation alone takes minutes — reserve this profile for the
    # scale benchmarks, not the figure sweeps.
    "large": {
        "neuron_resolutions": (42, 70, 96, 128, 180),
        "earthquake_resolutions": (18, 34),
        "animation_scale": 1.0,
    },
}


def _profile(name: str) -> dict:
    try:
        return PROFILES[name]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown dataset profile {name!r}; expected one of {sorted(PROFILES)}"
        ) from exc


@lru_cache(maxsize=None)
def neuron_series(profile: str = "small") -> tuple[TetrahedralMesh, ...]:
    """The five neuron levels of detail (the Figure 4 series), smallest first."""
    resolutions = _profile(profile)["neuron_resolutions"]
    return tuple(neuron_dataset_series(resolutions))


@lru_cache(maxsize=None)
def neuron_largest(profile: str = "small") -> TetrahedralMesh:
    """The most detailed neuron mesh of the profile (the paper's 33 GB dataset)."""
    resolutions = _profile(profile)["neuron_resolutions"]
    return neuron_mesh(resolutions[-1], name="neuron-largest")


@lru_cache(maxsize=None)
def earthquake_pair(profile: str = "small") -> tuple[TetrahedralMesh, TetrahedralMesh]:
    """The convex (SF2, SF1) earthquake meshes of Figure 8 (coarse first)."""
    coarse, fine = _profile(profile)["earthquake_resolutions"]
    return earthquake_mesh(coarse, name="SF2"), earthquake_mesh(fine, name="SF1")


@lru_cache(maxsize=None)
def animation_sequences(profile: str = "small") -> tuple[AnimationSequence, ...]:
    """The three deforming animation sequences of Figure 14."""
    return tuple(animation_suite(scale=_profile(profile)["animation_scale"]))
