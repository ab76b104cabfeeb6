"""Stage registry: a name → factory plugin mechanism.

Stages are registered under short names so pipelines can be assembled from
configuration (``AcousticPipeline().stage("extract", config=...)``) and so
downstream projects can plug their own stages into the same builder without
touching this package:

    from repro.pipeline import STAGES, Stage

    @STAGES.register("denoise")
    class DenoiseStage(Stage):
        ...

The default registry (:data:`STAGES`) ships with the built-in acoustic
stages; independent registries can be created for isolated plugin sets.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .stages import Stage

__all__ = ["StageRegistry", "STAGES"]


class StageRegistry:
    """A mapping from stage names to stage factories."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., Stage]] = {}

    def register(
        self, name: str, factory: Callable[..., Stage] | None = None
    ) -> Callable[..., Stage] | Callable[[Callable[..., Stage]], Callable[..., Stage]]:
        """Register ``factory`` under ``name`` (usable as a decorator).

        Re-registering a name replaces the previous factory, which lets
        applications override a built-in stage wholesale.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"stage name must be a non-empty string, got {name!r}")

        if factory is None:

            def decorator(fn: Callable[..., Stage]) -> Callable[..., Stage]:
                self._factories[name] = fn
                return fn

            return decorator

        self._factories[name] = factory
        return factory

    def factory(self, name: str) -> Callable[..., Stage]:
        """The factory registered under ``name``."""
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "<none>"
            raise KeyError(f"no stage registered as {name!r}; known stages: {known}") from None

    def create(self, name: str, /, **kwargs) -> Stage:
        """Instantiate the stage registered under ``name``."""
        stage = self.factory(name)(**kwargs)
        if not isinstance(stage, Stage):
            raise TypeError(
                f"factory for {name!r} returned {type(stage).__name__}, expected a Stage"
            )
        return stage

    def names(self) -> list[str]:
        """Registered stage names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)


#: The default registry holding the built-in acoustic stages.
STAGES = StageRegistry()


def _store_stage_factory(
    path=None,
    writer=None,
    backend: str = "auto",
    recording: str | None = None,
    station: str = "",
    flush_values: int = 65_536,
) -> Stage:
    """Lazy factory for the ``"store"`` stage (mirrors the real signature so
    :meth:`AcousticPipeline.instantiate` sees which overrides it accepts,
    without importing :mod:`repro.store` until a store stage is used)."""
    from ..store.stage import StoreWriterStage

    return StoreWriterStage(
        path=path,
        writer=writer,
        backend=backend,
        recording=recording,
        station=station,
        flush_values=flush_values,
    )


def _register_builtins() -> None:
    from .stages import ClassifyStage, ExtractStage, FeatureStage

    STAGES.register("extract", ExtractStage)
    STAGES.register("features", FeatureStage)
    STAGES.register("classify", ClassifyStage)
    STAGES.register("store", _store_stage_factory)


_register_builtins()
