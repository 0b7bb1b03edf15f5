"""The exception hierarchy: every subclass constructs, raises and carries context."""

import pytest

from repro.errors import (
    ConcurrencyError,
    DegradedExecutionError,
    DeltaValidationError,
    ExperimentError,
    FaultInjectionError,
    GeometryError,
    MeshConnectivityError,
    MeshError,
    QueryError,
    ReproError,
    SimulationError,
    SpatialIndexError,
    WorkloadError,
)

#: every error class with a plain message-only constructor
SIMPLE_ERRORS = (
    ReproError,
    MeshError,
    MeshConnectivityError,
    GeometryError,
    SpatialIndexError,
    QueryError,
    SimulationError,
    FaultInjectionError,
    WorkloadError,
    ExperimentError,
    ConcurrencyError,
)


class TestHierarchy:
    @pytest.mark.parametrize("error_class", SIMPLE_ERRORS)
    def test_constructs_and_raises(self, error_class):
        with pytest.raises(error_class, match="boom"):
            raise error_class("boom")

    @pytest.mark.parametrize("error_class", SIMPLE_ERRORS)
    def test_caught_as_repro_error(self, error_class):
        with pytest.raises(ReproError):
            raise error_class("boom")

    def test_subsystem_parents(self):
        assert issubclass(MeshConnectivityError, MeshError)
        assert issubclass(DeltaValidationError, ReproError)
        assert issubclass(DegradedExecutionError, ReproError)
        assert issubclass(FaultInjectionError, ReproError)

    def test_spatial_index_alias_is_gone(self):
        # the pre-1.1 IndexError_ alias warned for a full release cycle and
        # is now removed outright — only SpatialIndexError remains
        import repro
        import repro.errors

        for module in (repro.errors, repro):
            with pytest.raises(AttributeError, match="IndexError_"):
                module.IndexError_  # noqa: B018
            assert "IndexError_" not in module.__all__
            assert "SpatialIndexError" in module.__all__
        with pytest.raises(SpatialIndexError):
            raise SpatialIndexError("queried before build")

    def test_unknown_attribute_still_raises(self):
        import repro.errors

        with pytest.raises(AttributeError, match="NoSuchError"):
            repro.errors.NoSuchError  # noqa: B018


class TestStructuredErrors:
    def test_delta_validation_error_context(self):
        error = DeltaValidationError(
            "unsorted-ids", "ids must be strictly increasing", strategy="lur-tree", step=2
        )
        assert error.reason == "unsorted-ids"
        assert error.context() == {
            "strategy": "lur-tree",
            "step": 2,
            "reason": "unsorted-ids",
        }
        with pytest.raises(DeltaValidationError, match="strictly increasing"):
            raise error

    def test_degraded_execution_error_context_and_cause(self):
        cause = RuntimeError("index corrupted")
        error = DegradedExecutionError("every rung failed", strategy="octopus", step=4)
        with pytest.raises(DegradedExecutionError) as excinfo:
            raise error from cause
        assert excinfo.value.context() == {"strategy": "octopus", "step": 4}
        assert excinfo.value.__cause__ is cause
