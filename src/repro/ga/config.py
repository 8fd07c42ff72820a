"""GA configuration.

Defaults match the paper's experimental setup (Section 4): total
population 320, crossover rate 0.7, mutation rate 0.01.  The engine's
generation budget is the only knob the paper leaves unstated; 300 is a
reasonable envelope for its few-hundred-node graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Optional

from ..errors import ConfigError

__all__ = ["GAConfig", "PAPER_POPULATION", "PAPER_CROSSOVER_RATE", "PAPER_MUTATION_RATE"]

#: The paper's experimental constants.
PAPER_POPULATION = 320
PAPER_CROSSOVER_RATE = 0.7
PAPER_MUTATION_RATE = 0.01

#: fields that count things; ``None`` is allowed where marked
_INT_FIELDS = (
    ("population_size", False),
    ("max_generations", False),
    ("patience", True),
    ("tournament_size", False),
    ("elite", False),
    ("hill_climb_passes", False),
    ("eval_memo", False),
)
_REAL_FIELDS = (
    ("crossover_rate", False),
    ("mutation_rate", False),
    ("target_fitness", True),
)


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters for :class:`repro.ga.engine.GAEngine`.

    Attributes
    ----------
    population_size:
        Number of individuals (paper: 320 total across all islands).
    crossover_rate:
        Probability ``p_c`` that a selected pair recombines (paper: 0.7);
        non-recombined pairs contribute verbatim copies.
    mutation_rate:
        Per-gene mutation probability ``p_m`` (paper: 0.01).
    max_generations:
        Hard generation budget.
    patience:
        Stop early after this many generations without improvement of
        the best fitness (``None`` disables early stopping).
    target_fitness:
        Stop as soon as the best fitness reaches this value.
    selection:
        Parent selection: ``"tournament"``, ``"roulette"``, ``"rank"``,
        or ``"random"``.
    tournament_size:
        Entrants per tournament when ``selection="tournament"``.
    replacement:
        Survivor strategy: ``"plus"`` ((μ+λ): best of parents ∪
        offspring — the paper's description) or ``"generational"``
        (offspring replace all but ``elite`` parents).
    elite:
        Parents guaranteed survival under generational replacement.
    hill_climb:
        ``"off"``, ``"best"`` (climb the best offspring each
        generation), ``"all"`` (climb every offspring — expensive), or
        ``"final"`` (one climb of the final best individual).
    hill_climb_passes:
        Sweep budget per hill-climbing invocation.
    mutation:
        ``"point"`` (paper) or ``"boundary"`` (locality-aware variant).
    eval_memo:
        Capacity of the engine evaluator's cross-generation row-hash
        memo (see :class:`repro.ga.evaluation.BatchEvaluator`); rows
        identical to previously evaluated ones — late-run convergent
        populations, DPGA migrants — reuse their exact fitness instead
        of being re-evaluated.  ``0`` disables the memo.  Fitness values
        and search trajectories are bit-identical either way; only the
        evaluation *count* drops.
    """

    population_size: int = PAPER_POPULATION
    crossover_rate: float = PAPER_CROSSOVER_RATE
    mutation_rate: float = PAPER_MUTATION_RATE
    max_generations: int = 300
    patience: Optional[int] = None
    target_fitness: Optional[float] = None
    selection: str = "tournament"
    tournament_size: int = 2
    replacement: str = "plus"
    elite: int = 2
    hill_climb: str = "off"
    hill_climb_passes: int = 2
    mutation: str = "point"
    eval_memo: int = 4096

    def __post_init__(self) -> None:
        # overrides arrive from the service wire, where a JSON number
        # may be 2.5, NaN, Infinity or true: reject those before any
        # range check compares them (NaN passes every comparison)
        for name, optional in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, optional in _REAL_FIELDS:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if (
                isinstance(value, bool)
                or not isinstance(value, Real)
                or not math.isfinite(value)
            ):
                raise ConfigError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.population_size < 2:
            raise ConfigError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigError(
                f"crossover_rate must be in [0, 1], got {self.crossover_rate}"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(
                f"mutation_rate must be in [0, 1], got {self.mutation_rate}"
            )
        if self.max_generations < 0:
            raise ConfigError(
                f"max_generations must be >= 0, got {self.max_generations}"
            )
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.selection not in ("tournament", "roulette", "rank", "random"):
            raise ConfigError(f"unknown selection {self.selection!r}")
        if self.tournament_size < 1:
            raise ConfigError(
                f"tournament_size must be >= 1, got {self.tournament_size}"
            )
        if self.replacement not in ("plus", "generational"):
            raise ConfigError(f"unknown replacement {self.replacement!r}")
        if not 0 <= self.elite <= self.population_size:
            raise ConfigError(
                f"elite must be in [0, population_size], got {self.elite}"
            )
        if self.hill_climb not in ("off", "best", "all", "final"):
            raise ConfigError(f"unknown hill_climb mode {self.hill_climb!r}")
        if self.hill_climb_passes < 1:
            raise ConfigError(
                f"hill_climb_passes must be >= 1, got {self.hill_climb_passes}"
            )
        if self.mutation not in ("point", "boundary"):
            raise ConfigError(f"unknown mutation kind {self.mutation!r}")
        if self.eval_memo < 0:
            raise ConfigError(
                f"eval_memo must be >= 0, got {self.eval_memo}"
            )

    def with_updates(self, **kwargs) -> "GAConfig":
        """Functional update (the dataclass is frozen)."""
        return replace(self, **kwargs)

    @classmethod
    def paper(cls, **overrides) -> "GAConfig":
        """The paper's exact experimental constants, plus overrides."""
        base = dict(
            population_size=PAPER_POPULATION,
            crossover_rate=PAPER_CROSSOVER_RATE,
            mutation_rate=PAPER_MUTATION_RATE,
        )
        base.update(overrides)
        return cls(**base)
