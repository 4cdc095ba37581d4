"""Parameter grids: the axes of a campaign.

A :class:`Grid` is a declarative description of a set of parameter
points (dicts).  Three primitive shapes compose into arbitrary
studies:

* ``Grid.product(a=[...], b=[...])`` — the cartesian product of its
  axes (the classic sweep; a plain ``{name: values}`` dict is
  accepted anywhere a grid is and means exactly this);
* ``Grid.zip(a=[...], b=[...])`` — axes advanced in lockstep (paired
  parameters, e.g. a payload length with its matching timeout);
* ``g1 + g2`` — chain: the points of ``g1`` followed by the points of
  ``g2`` (irregular studies, extra corner cases appended to a
  sweep);
* ``g1 * g2`` — cross: every point of ``g1`` combined with every
  point of ``g2`` (product of heterogeneous sub-grids).

Grids are frozen, deterministic (``points()`` always enumerates in
the same order) and JSON-round-trippable via :meth:`Grid.to_dict` /
:meth:`Grid.from_dict`, so a whole campaign — topology, traffic,
faults and axes — fits in one version-controlled document.

Axis names are either :class:`~repro.scenario.spec.SystemSpec` field
names (``clock_hz``, ``max_message_bytes``, ...), free parameters
consumed by workload/fault factories, or dotted document patches
(``workload.count``, ``faults.faults.0.rate_hz``,
``system.nodes.1.rx_buffer_bytes``) applied to the compiled trial
documents — see :meth:`repro.campaign.Campaign.trials`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.schema import take_keys

GRID_KINDS = ("product", "zip", "chain", "cross")

GridLike = Union["Grid", Mapping[str, Iterable[Any]]]


def _freeze_axes(axes: Mapping[str, Iterable[Any]]) -> Tuple:
    frozen = []
    for name, values in axes.items():
        if isinstance(values, (str, bytes)) or not isinstance(
            values, Iterable
        ):
            raise ConfigurationError(
                f"grid axis {name!r} needs an iterable of values, "
                f"got {values!r}"
            )
        frozen.append((name, tuple(values)))
    return tuple(frozen)


@dataclass(frozen=True)
class Grid:
    """A frozen, composable set of parameter points.

    Build via :meth:`product` / :meth:`zip` and compose with ``+``
    (chain) and ``*`` (cross); :meth:`points` enumerates the concrete
    parameter dicts in a deterministic order.
    """

    kind: str = "product"
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    parts: Tuple["Grid", ...] = ()

    # -- constructors ------------------------------------------------------
    @staticmethod
    def product(**axes: Iterable[Any]) -> "Grid":
        """Cartesian product of the named axes."""
        return Grid(kind="product", axes=_freeze_axes(axes))

    @staticmethod
    def zip(**axes: Iterable[Any]) -> "Grid":
        """Axes advanced in lockstep; all must have the same length."""
        grid = Grid(kind="zip", axes=_freeze_axes(axes))
        lengths = {name: len(values) for name, values in grid.axes}
        if len(set(lengths.values())) > 1:
            raise ConfigurationError(
                f"Grid.zip axes must have equal lengths, got {lengths}"
            )
        return grid

    @staticmethod
    def single(**params: Any) -> "Grid":
        """A one-point grid (handy as a chain/cross operand)."""
        return Grid(
            kind="zip",
            axes=tuple((name, (value,)) for name, value in params.items()),
        )

    # -- composition -------------------------------------------------------
    def __add__(self, other: "Grid") -> "Grid":
        other = as_grid(other)
        mine = self.parts if self.kind == "chain" else (self,)
        theirs = other.parts if other.kind == "chain" else (other,)
        return Grid(kind="chain", parts=mine + theirs)

    def __mul__(self, other: "Grid") -> "Grid":
        other = as_grid(other)
        mine = self.parts if self.kind == "cross" else (self,)
        theirs = other.parts if other.kind == "cross" else (other,)
        crossed = Grid(kind="cross", parts=mine + theirs)
        seen: Dict[str, int] = {}
        for index, part in enumerate(crossed.parts):
            for key in part.keys():
                if key in seen and seen[key] != index:
                    raise ConfigurationError(
                        f"cross grids share axis {key!r}; crossed "
                        "sub-grids must have disjoint parameter names"
                    )
                seen[key] = index
        return crossed

    # -- enumeration -------------------------------------------------------
    def keys(self) -> Tuple[str, ...]:
        """Every axis name this grid can set, in declaration order."""
        if self.kind in ("product", "zip"):
            return tuple(name for name, _ in self.axes)
        seen: List[str] = []
        for part in self.parts:
            for key in part.keys():
                if key not in seen:
                    seen.append(key)
        return tuple(seen)

    def points(self) -> List[Dict[str, Any]]:
        """The concrete parameter dicts, in deterministic order."""
        if self.kind == "product":
            names = [name for name, _ in self.axes]
            return [
                dict(zip(names, values))
                for values in itertools.product(
                    *(values for _, values in self.axes)
                )
            ]
        if self.kind == "zip":
            if not self.axes:
                return [{}]
            lengths = {len(values) for _, values in self.axes}
            if len(lengths) > 1:
                raise ConfigurationError(
                    "Grid.zip axes must have equal lengths"
                )
            n = lengths.pop()
            return [
                {name: values[i] for name, values in self.axes}
                for i in range(n)
            ]
        if self.kind == "chain":
            return [
                point for part in self.parts for point in part.points()
            ]
        if self.kind == "cross":
            points: List[Dict[str, Any]] = [{}]
            for part in self.parts:
                points = [
                    {**left, **right}
                    for left in points
                    for right in part.points()
                ]
            return points
        raise ConfigurationError(
            f"grid kind must be one of {GRID_KINDS}, not {self.kind!r}"
        )

    def __len__(self) -> int:
        return len(self.points())

    def __iter__(self):
        return iter(self.points())

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> Dict:
        if self.kind in ("product", "zip"):
            return {
                "kind": self.kind,
                "axes": {name: list(values) for name, values in self.axes},
            }
        return {
            "kind": self.kind,
            "parts": [part.to_dict() for part in self.parts],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Grid":
        kind = data.get("kind")
        if kind not in GRID_KINDS:
            raise ConfigurationError(
                f"grid kind must be one of {GRID_KINDS}, not {kind!r}"
            )
        data = take_keys(
            data, {f.name for f in dataclasses.fields(cls)}, "Grid",
            lenient=False,
        )
        if kind == "zip":
            return Grid.zip(**dict(data.get("axes", {})))
        if kind == "product":
            return Grid(kind=kind, axes=_freeze_axes(data.get("axes", {})))
        parts = tuple(cls.from_dict(part) for part in data.get("parts", ()))
        grid = Grid(kind=kind, parts=parts)
        if kind == "cross" and parts:
            # Re-run the disjointness check composition enforces.
            rebuilt = parts[0]
            for part in parts[1:]:
                rebuilt = rebuilt * part
            return rebuilt
        return grid


def as_grid(source: GridLike) -> "Grid":
    """Coerce ``source`` to a :class:`Grid`.

    Accepts a :class:`Grid`, a grid document (a mapping with a
    ``"kind"`` entry naming one of :data:`GRID_KINDS`), or a plain
    ``{axis: values}`` mapping, which means :meth:`Grid.product` —
    the shape of a scenario document's ``"sweep"`` grid.
    """
    if isinstance(source, Grid):
        return source
    if isinstance(source, Mapping):
        if isinstance(source.get("kind"), str) and source["kind"] in GRID_KINDS:
            return Grid.from_dict(source)
        return Grid.product(**dict(source))
    raise ConfigurationError(
        f"expected a Grid or a {{axis: values}} mapping, got {source!r}"
    )
