"""Declarative run and sweep specifications with stable content hashes.

A :class:`RunSpec` names one cell simulation the way the benchmarks and
the CLI do -- RAT, scheduler, load, seed, scale, plus a flat set of
:class:`~repro.sim.config.SimConfig` overrides -- without holding any
live objects, so it can be hashed, pickled to worker processes, and
written into sweep manifests.  A :class:`SweepSpec` is the declarative
grid (schedulers x loads x seeds x override variants) that
:func:`SweepSpec.expand` turns into a deterministic, duplicate-free run
list.

The content hash (:meth:`RunSpec.key`) is the result-store key: it is
the SHA-256 of the spec's canonical JSON form, so the same logical run
hashes identically across processes, Python versions, and dict
orderings.  Everything that changes simulation output must be inside the
hash; nothing else may be (otherwise equivalent runs stop sharing store
entries).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.sim.config import SimConfig, TrafficSpec
from repro.sim.session import SimulationSession

#: Bump when the meaning of a spec field (or the simulator's seeded
#: behaviour contract) changes incompatibly: old store entries must not
#: be served for new-format specs.
SPEC_SCHEMA = 1

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_override(name: str, value: Any) -> None:
    if not isinstance(value, _SCALAR_TYPES):
        raise TypeError(
            f"override {name!r} must be a JSON scalar for stable hashing, "
            f"got {type(value).__name__}"
        )


def _is_number(value: Any, kinds=(int, float)) -> bool:
    """Whether ``value`` is one of ``kinds`` and not a bool."""
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, described declaratively.

    ``overrides`` are extra :class:`SimConfig` keyword overrides
    restricted to JSON scalars (stored as a sorted tuple of pairs so two
    specs differing only in dict ordering hash identically).
    """

    rat: str  # "lte" or "nr"
    scheduler: str
    load: float = 0.6
    seed: int = 42
    num_ues: int = 60
    duration_s: float = 10.0
    mu: int = 1  # NR numerology (ignored for lte)
    mec: bool = False  # NR edge server placement (ignored for lte)
    distribution: Optional[str] = None  # None = per-RAT paper workload
    #: Traffic shape: "poisson" (default), "incast", "rpc", or "video"
    #: (see repro.traffic.workloads).
    workload: str = "poisson"
    overrides: tuple = ()

    def __post_init__(self) -> None:
        if self.rat not in ("lte", "nr"):
            raise ValueError(f"rat must be 'lte' or 'nr': {self.rat!r}")
        from repro.traffic.distributions import distribution_by_name
        from repro.traffic.generator import MAX_LOAD, MAX_UES
        from repro.traffic.workloads import WORKLOADS

        if not isinstance(self.scheduler, str):
            raise ValueError(f"scheduler must be a string: {self.scheduler!r}")
        if self.distribution is not None:
            if not isinstance(self.distribution, str):
                raise ValueError(
                    f"distribution must be a string: {self.distribution!r}"
                )
            distribution_by_name(self.distribution)
        # A comparison with NaN or an infinity is false, so the range
        # checks are also the finiteness checks.
        if not (_is_number(self.load) and 0.0 < self.load < MAX_LOAD):
            raise ValueError(
                f"load must be a number in (0, {MAX_LOAD:g}): {self.load!r}"
            )
        if not (_is_number(self.duration_s) and 0.0 < self.duration_s < math.inf):
            raise ValueError(
                f"duration_s must be a finite number > 0: {self.duration_s!r}"
            )
        if not (_is_number(self.num_ues, int) and 1 <= self.num_ues <= MAX_UES):
            raise ValueError(
                f"num_ues must be an integer in 1..{MAX_UES}: {self.num_ues!r}"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r} (choices: {WORKLOADS})"
            )
        if isinstance(self.overrides, Mapping):
            pairs = tuple(sorted(self.overrides.items()))
            object.__setattr__(self, "overrides", pairs)
        else:
            object.__setattr__(
                self, "overrides", tuple(sorted(tuple(p) for p in self.overrides))
            )
        for name, value in self.overrides:
            _check_override(name, value)

    # -- hashing ------------------------------------------------------------

    def canonical(self) -> dict:
        """JSON-safe dict with every output-affecting field."""
        doc = {
            "schema": SPEC_SCHEMA,
            "rat": self.rat,
            "scheduler": self.scheduler,
            "load": self.load,
            "seed": self.seed,
            "num_ues": self.num_ues,
            "duration_s": self.duration_s,
            "mu": self.mu,
            "mec": self.mec,
            "distribution": self.distribution,
            "overrides": [list(pair) for pair in self.overrides],
        }
        # Included only when non-default so every pre-existing store key
        # (all Poisson) keeps resolving to the same entries.
        if self.workload != "poisson":
            doc["workload"] = self.workload
        return doc

    def key(self) -> str:
        """Stable content hash -- the result-store key."""
        text = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    # -- materialization ----------------------------------------------------

    def to_config(self) -> SimConfig:
        """Build the :class:`SimConfig` this spec describes."""
        common = dict(
            num_ues=self.num_ues,
            load=self.load,
            seed=self.seed,
            **dict(self.overrides),
        )
        if self.rat == "nr":
            cfg = SimConfig.nr_default(mu=self.mu, mec=self.mec, **common)
        else:
            cfg = SimConfig.lte_default(**common)
        if self.distribution:
            cfg = cfg.with_overrides(
                traffic=TrafficSpec(distribution=self.distribution, load=self.load)
            )
        if self.workload != "poisson":
            from dataclasses import replace

            from repro.traffic.workloads import WORKLOAD_KINDS

            cfg = cfg.with_overrides(
                traffic=replace(cfg.traffic, kind=WORKLOAD_KINDS[self.workload])
            )
        return cfg

    def session(self, drain_s: float = 2.0, **sim_kwargs) -> SimulationSession:
        """The (not yet started) session that runs this spec.

        Every front end -- ``repro run``/``explain``, sweep workers,
        ``repro serve``, the benchmarks -- launches through here;
        ``sim_kwargs`` are :class:`~repro.sim.cell.CellSimulation`'s
        ``telemetry=`` and ``flow_trace=``.
        """
        return SimulationSession.from_config(
            self.to_config(),
            self.scheduler,
            duration_s=self.duration_s,
            drain_s=drain_s,
            **sim_kwargs,
        )

    def label(self) -> str:
        """Short human-readable tag for progress lines and failures."""
        parts = [self.rat, self.scheduler, f"load={self.load}", f"seed={self.seed}"]
        if self.rat == "nr":
            parts.append(f"mu={self.mu}")
        if self.workload != "poisson":
            parts.append(f"workload={self.workload}")
        return " ".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of runs: schedulers x loads x seeds x variants.

    ``variants`` is a sequence of override dicts; each grid point is run
    once per variant (the default single empty variant reproduces a plain
    scheduler/load/seed grid).
    """

    rat: str = "lte"
    schedulers: tuple = ("outran",)
    loads: tuple = (0.6,)
    seeds: tuple = (42,)
    num_ues: int = 60
    duration_s: float = 10.0
    mu: int = 1
    mec: bool = False
    distribution: Optional[str] = None
    workloads: tuple = ("poisson",)
    variants: tuple = field(default_factory=lambda: ({},))

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        object.__setattr__(self, "loads", tuple(self.loads))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(
            self,
            "variants",
            tuple(
                tuple(sorted(v.items())) if isinstance(v, Mapping) else tuple(v)
                for v in self.variants
            ),
        )
        if (
            not self.schedulers
            or not self.loads
            or not self.seeds
            or not self.workloads
        ):
            raise ValueError("sweep grid must not be empty")

    def validate(self) -> None:
        """Fail fast on bad axis values, before any worker spins up.

        A misspelled scheduler/workload/cc/aqm name, or a variant key
        that is no :class:`SimConfig` field, would otherwise surface as
        one crashed run per grid point, deep inside the pool.  Raises
        ``ValueError`` naming the axis and the value (or the key).
        """
        from repro.cc import AQM_NAMES, CC_NAMES
        from repro.sim.cell import is_scheduler_name
        from repro.traffic.workloads import WORKLOADS

        for scheduler in self.schedulers:
            if not is_scheduler_name(str(scheduler)):
                raise ValueError(
                    f"unknown scheduler in sweep axis 'schedulers': "
                    f"{scheduler!r}"
                )
        for workload in self.workloads:
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload in sweep axis 'workloads': "
                    f"{workload!r} (choices: {WORKLOADS})"
                )
        checked = {"cc": CC_NAMES, "aqm": AQM_NAMES}
        # ``bandwidth_mhz`` is the one lte_default/nr_default keyword
        # that is not itself a field.
        config_keys = {f.name for f in fields(SimConfig)} | {"bandwidth_mhz"}
        for variant in self.variants:
            for name, value in variant:
                if name not in config_keys:
                    raise ValueError(
                        f"unknown SimConfig field in sweep variant "
                        f"override: {name!r}"
                    )
                allowed = checked.get(name)
                if allowed is not None and value not in allowed:
                    raise ValueError(
                        f"unknown {name} in sweep variant override: "
                        f"{value!r} (choices: {tuple(allowed)})"
                    )

    def expand(self) -> list[RunSpec]:
        """Deterministic run list: scheduler-major, then load, seed,
        workload, variant."""
        runs = []
        for scheduler in self.schedulers:
            for load in self.loads:
                for seed in self.seeds:
                    for workload in self.workloads:
                        for variant in self.variants:
                            runs.append(
                                RunSpec(
                                    rat=self.rat,
                                    scheduler=scheduler,
                                    load=load,
                                    seed=seed,
                                    num_ues=self.num_ues,
                                    duration_s=self.duration_s,
                                    mu=self.mu,
                                    mec=self.mec,
                                    distribution=self.distribution,
                                    workload=workload,
                                    overrides=dict(variant),
                                )
                            )
        return runs

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build from a JSON-style mapping (the CLI ``sweep`` format)."""
        known = {
            "rat", "schedulers", "loads", "seeds", "num_ues",
            "duration_s", "mu", "mec", "distribution", "workloads",
            "variants",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {sorted(unknown)}")
        kwargs = dict(data)
        for seq_field in ("schedulers", "loads", "seeds", "workloads", "variants"):
            if seq_field in kwargs:
                kwargs[seq_field] = tuple(kwargs[seq_field])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "rat": self.rat,
            "schedulers": list(self.schedulers),
            "loads": list(self.loads),
            "seeds": list(self.seeds),
            "num_ues": self.num_ues,
            "duration_s": self.duration_s,
            "mu": self.mu,
            "mec": self.mec,
            "distribution": self.distribution,
            "workloads": list(self.workloads),
            "variants": [dict(v) for v in self.variants],
        }


def dedupe(specs: Iterable[RunSpec]) -> "list[RunSpec]":
    """Drop duplicate specs (same content hash), keeping first occurrence."""
    seen: set[str] = set()
    unique = []
    for spec in specs:
        key = spec.key()
        if key not in seen:
            seen.add(key)
            unique.append(spec)
    return unique
