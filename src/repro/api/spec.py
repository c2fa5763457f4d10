"""Declarative scheduler specification (registry name + validated params).

A :class:`SchedulerSpec` is the serializable counterpart of a constructed
:class:`~repro.schedulers.Scheduler`: the registry name plus plain keyword
parameters.  Specs are validated against the factory signature at
construction time (not at build time), so a malformed request fails fast at
the service boundary, and they round-trip losslessly through plain dicts —
the property the cached, pool-parallel execution model relies on.

Rich parameter values are normalised to the wire form on ``to_dict`` and
re-hydrated on ``build``:

* ``config`` — a :class:`~repro.schedulers.PipelineConfig` (or its dict
  form) for the pipeline factories;
* tuples/lists — JSON turns tuples into lists; ``build`` converts list
  values back to tuples (every tuple-valued factory parameter in the
  registry, e.g. ``coarsening_ratios``, is order-only).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.exceptions import ConfigurationError
from ..schedulers.base import Scheduler
from ..schedulers.pipeline import PipelineConfig

__all__ = ["SchedulerSpec"]


def _factory(name: str):
    from ..schedulers.registry import SCHEDULER_FACTORIES, available_schedulers

    try:
        return SCHEDULER_FACTORIES[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from exc


def _accepted_parameters(factory) -> tuple[set[str] | None, set[str]]:
    """``(accepted, seedable)`` parameter names; ``accepted=None`` = **kwargs."""
    signature = inspect.signature(factory)
    names: set[str] = set()
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None, names
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.add(parameter.name)
    return names, names


@dataclass(frozen=True)
class SchedulerSpec:
    """A frozen, serializable recipe for building a registry scheduler.

    Parameters
    ----------
    name:
        Registry name (see :func:`repro.schedulers.available_schedulers`).
    params:
        Keyword arguments for the factory.  Values may be plain JSON types
        or the rich in-memory forms (:class:`PipelineConfig`, tuples);
        :meth:`to_dict` normalises them to the wire form either way.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        factory = _factory(self.name)  # fails fast on unknown names
        accepted, _ = _accepted_parameters(factory)
        if accepted is not None:
            unknown = sorted(set(self.params) - accepted)
            if unknown:
                raise ConfigurationError(
                    f"scheduler {self.name!r} does not accept parameter(s) "
                    f"{', '.join(unknown)}; accepted: {', '.join(sorted(accepted))}"
                )
        # validate a pipeline config here rather than mid-solve in build();
        # params keep their given form so to_dict() and fingerprints hold
        config = self.params.get("config")
        if isinstance(config, dict):
            try:
                PipelineConfig.from_dict(config)
            except TypeError as exc:
                raise ConfigurationError(
                    f"scheduler {self.name!r}: invalid config: {exc}"
                ) from exc
        elif config is not None and not isinstance(config, PipelineConfig):
            raise ConfigurationError(
                f"scheduler {self.name!r}: config must be a PipelineConfig, "
                f"a dict or None, got {type(config).__name__}"
            )

    # ------------------------------------------------------------------ #
    def build(self, default_seed: int | None = None) -> Scheduler:
        """Instantiate the scheduler.

        ``default_seed`` is injected as the factory's ``seed`` parameter
        when the factory accepts one and the spec does not already pin it
        (this is how :class:`~repro.api.ScheduleRequest.seed` reaches the
        randomised schedulers).
        """
        factory = _factory(self.name)
        params: dict[str, Any] = {}
        for key, value in self.params.items():
            if key == "config" and isinstance(value, dict):
                value = PipelineConfig.from_dict(value)
            elif isinstance(value, list):
                value = tuple(value)
            params[key] = value
        if default_seed is not None and "seed" not in params:
            _, seedable = _accepted_parameters(factory)
            if "seed" in seedable:
                params["seed"] = default_seed
        return factory(**params)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain JSON-compatible representation (inverse of :meth:`from_dict`)."""
        params: dict[str, Any] = {}
        for key, value in self.params.items():
            if isinstance(value, PipelineConfig):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            params[key] = value
        return {"name": self.name, "params": params}

    @classmethod
    def from_dict(cls, data: dict) -> "SchedulerSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` output."""
        try:
            name = str(data["name"])
            params = dict(data.get("params", {}))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed scheduler spec: {exc}") from exc
        return cls(name=name, params=params)
