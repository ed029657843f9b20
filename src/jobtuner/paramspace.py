"""Tunable parameter spaces.

Defines typed parameter specs, trial points, the line-oriented parameter
file format, exhaustive grid enumeration, and the codec between native
parameter values and the normalized unit cube the optimizers search. Only
the codec uses numpy, imported on first call, so grid search never loads it.

A trial point is two tuples, its names and its values. Only its space makes
one: ParamSpace.point from a mapping, checked once, and the grid, decoder,
default and history decoder from values the space produced. Every point shares
its space's one names tuple, in spec order, so its values are its point key.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    DimensionMismatchError,
    DomainError,
    DuplicateParamError,
    EmptySpaceError,
    InvalidPointError,
    ParamSyntaxError,
)

if TYPE_CHECKING:
    import numpy as np
Value = int | float | str

KIND_INT = "int"
KIND_FLOAT = "float"
KIND_CAT = "cat"

# Slack for counting lattice steps across float ranges; (upper-lower)/step
# lands just under a whole number when step has no exact binary form.
_COUNT_EPS = 1e-9


def _is_whole(v: int | float) -> bool:
    """The one wholeness rule, exact at any size: an int is whole as it is."""
    return isinstance(v, int) or float(v).is_integer()


def _wholenum(raw: str) -> int:
    try:
        return int(raw)  # an integer literal, read exactly
    except ValueError:
        v = float(raw)  # such as 64.0 or 1e3
    if not _is_whole(v):
        raise ValueError(f"{raw!r} is not a whole number")
    return int(v)


def fmt_float(x: float) -> str:
    """A float's text in every file and report: shortest round-trip repr."""
    return repr(float(x))


class CheckedTuple(tuple):
    """Base of the checked value types, listed before their NamedTuple fields class.

    Its _make builds through the type's __new__, so _replace runs the same
    checks and normalisation as construction does.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields: Iterable):
        return cls(*fields)


class _SpecFields(NamedTuple):
    name: str
    kind: str
    lower: int | float | None
    upper: int | float | None
    step: int | float | None
    values: tuple[str, ...]
    default: Value | None


class ParamSpec(CheckedTuple, _SpecFields):
    """One tunable configuration key, e.g. a Hadoop property; immutable.

    A numeric kind's inclusive bounds, positive step (the grid stride) and
    default follow one rule per kind: an int's are whole, a float's finite.
    A categorical kind carries an ordered list of distinct strings.
    """

    __slots__ = ()

    def __new__(cls, name: str, kind: str, lower: int | float | None = None,
                upper: int | float | None = None, step: int | float | None = None,
                values: tuple[str, ...] = (), default: Value | None = None) -> ParamSpec:
        if not name or re.search(r"\s", name):
            raise DomainError(f"parameter name {name!r} is empty or has whitespace")
        if kind not in (KIND_INT, KIND_FLOAT, KIND_CAT):
            raise DomainError(f"{name}: unknown kind {kind!r}")

        if kind == KIND_CAT:
            if not values:
                raise DomainError(f"{name}: categorical needs at least one value")
            if len(set(values)) != len(values):
                raise DomainError(f"{name}: categorical values must be distinct")
            if default is None:
                default = values[0]
            elif default not in values:
                raise DomainError(f"{name}: default {default!r} not among values")
            return tuple.__new__(cls, (name, kind, lower, upper, step, values, default))

        if lower is None or upper is None or step is None or values:
            raise DomainError(f"{name}: numeric kind needs lower, upper and step, and no values")
        if lower > upper:
            raise DomainError(f"{name}: lower {lower} > upper {upper}")
        if step <= 0:
            raise DomainError(f"{name}: step must be > 0, got {step}")

        # the kind's one rule: a float nan or inf breaks the lattice, an int is finite as it is
        convert, holds, rule = ((int, _is_whole, "integer {} must be whole") if kind == KIND_INT
                                else (float, math.isfinite, "float {} must be finite"))
        if default is None:
            default = lower
        for label, v in (("lower", lower), ("upper", upper), ("step", step), ("default", default)):
            if not holds(v):
                raise DomainError(f"{name}: {rule.format(label)}, got {v}")
        lower, upper, step, default = map(convert, (lower, upper, step, default))
        spec = tuple.__new__(cls, (name, kind, lower, upper, step, values, default))
        violation = spec.check_value(default)  # outside the bounds, or an int off the lattice
        if violation:
            raise DomainError(f"{violation} (the default)")
        return spec

    # -- lattice helpers ------------------------------------------------

    @property
    def lattice(self) -> tuple[int | float, int | float, int | float]:
        """(first, last, step): the bounds and step, or a categorical's indices (0, n - 1, 1)."""
        if self.kind == KIND_CAT:
            return 0, len(self.values) - 1, 1
        return self.lower, self.upper, self.step

    def lattice_count(self) -> int:
        """Number of grid values: first, first+step, ... <= last."""
        first, last, step = self.lattice
        if self.kind != KIND_FLOAT:
            return (last - first) // step + 1
        k = int(math.floor((last - first) / step + _COUNT_EPS))
        while k > 0 and first + k * step > last + _COUNT_EPS * max(1.0, abs(last)):
            k -= 1
        return k + 1

    def lattice_value(self, k: int) -> Value:
        """The k-th grid value in canonical form."""
        if self.kind == KIND_CAT:
            return self.values[k]
        # a float lattice's top value can land an ulp above upper (0.05 + 18*0.05)
        return min(self.lower + k * self.step, self.upper)

    def grid_values(self) -> list[Value]:
        return [self.lattice_value(k) for k in range(self.lattice_count())]

    # -- value codec -------------------------------------------------------

    def check_value(self, v: Value) -> str | None:
        """Return a violation message for v, or None when v is in the domain."""
        if self.kind == KIND_CAT:
            if v not in self.values:
                return f"{self.name}: value {v!r} not among declared values"
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return f"{self.name}: value {v!r} is not numeric"
        if not (self.lower <= v <= self.upper):
            return f"{self.name}: value {v} out of range [{self.lower}, {self.upper}]"
        if self.kind == KIND_INT:
            if not _is_whole(v):
                return f"{self.name}: value {v} is not an integer"
            if (int(v) - self.lower) % self.step != 0:
                return f"{self.name}: value {v} not on lattice {self.lower}+k*{self.step}"
        return None

    def encode_value(self, v: Value) -> float:
        """Map a domain value (a categorical's index) to [0, 1]; an int's is exact at any size."""
        first, last, _ = self.lattice
        if last == first:
            return 0.0
        x = self.values.index(v) if self.values else v
        return (x - first) / (last - first)

    def decode_unit(self, u: float) -> Value:
        """Map a unit coordinate (clamped to [0, 1]) to its nearest lattice value. Every kind,
        a categorical as its index lattice, decodes by one rule: ties round up on the
        non-negative lattice index."""
        u = min(max(u, 0.0), 1.0)
        first, last, step = self.lattice
        if self.kind == KIND_INT and max(-first, last) >= 2**53:
            # past 2**53 floats skip integers: round u * (last - first) / step exactly
            n, d = u.as_integer_ratio()
            k = (2 * n * (last - first) + d * step) // (2 * d * step)
        else:
            v = first + u * (last - first)
            k = int(math.floor((v - first) / step + 0.5))  # u >= 0 (or -0.0): k >= 0
        return self.lattice_value(min(k, self.lattice_count() - 1))

    def render(self, v: Value) -> str:
        """Canonical string form: ints without decimal point, floats shortest-roundtrip."""
        if self.kind == KIND_INT:
            return str(int(v))
        if self.kind == KIND_FLOAT:
            return fmt_float(v)
        return str(v)


class TrialPoint:
    """One parameter assignment of a space; immutable and unhashable.

    Made only by its space (ParamSpace.point), never from a mapping directly.
    Stored as two tuples: the space's own `names` tuple, and `values` in spec
    order, which are the space's point key. Points are equal when both are.
    """

    __slots__ = ("names", "values")
    __hash__ = None  # the hashable identity is the space's point key

    def __new__(cls, *args, **kwargs):
        raise TypeError("a point is made by its space: use ParamSpace.point(mapping)")

    @classmethod
    def _of(cls, names: tuple[str, ...], values: tuple[Value, ...]) -> TrialPoint:
        point = object.__new__(cls)
        object.__setattr__(point, "names", names)
        object.__setattr__(point, "values", values)
        return point

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild a point without assigning to it
        return self._of, (self.names, self.values)

    def __getitem__(self, name: str) -> Value:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialPoint):
            return NotImplemented
        return self.names == other.names and self.values == other.values

    def as_dict(self) -> dict[str, Value]:
        return dict(zip(self.names, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self.names, self.values))
        return f"TrialPoint({inner})"


class ParamSpace:
    """Ordered collection of ParamSpecs; the unit of every tuning session; immutable.

    Equal and hashed by its specs. Keeps the tuple of their names, which
    every point it builds shares.
    """

    __slots__ = ("specs", "_names")

    def __init__(self, specs: Iterable[ParamSpec]):
        specs = tuple(specs)
        if not specs:
            raise EmptySpaceError("a parameter space needs at least one parameter")
        seen = set()
        for s in specs:
            if s.name in seen:
                raise DuplicateParamError(s.name)
            seen.add(s.name)
        object.__setattr__(self, "specs", specs)
        object.__setattr__(self, "_names", tuple(s.name for s in specs))

    __setattr__ = TrialPoint.__setattr__
    __delattr__ = TrialPoint.__delattr__

    def __reduce__(self):  # copy and pickle rebuild a space without assigning to it
        return self.__class__, (self.specs,)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:
        return f"ParamSpace(specs={self.specs!r})"

    @property
    def dimension(self) -> int:
        return len(self.specs)

    def names(self) -> list[str]:
        return [s.name for s in self.specs]

    def spec(self, name: str) -> ParamSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise KeyError(name)

    def point(self, assignment: Mapping[str, Value]) -> TrialPoint:
        """The point assigning these values, checked once, in spec order whatever the
        mapping's order; raises InvalidPointError listing every violation."""
        declared, present = set(self._names), set(assignment)
        violations = [f"missing parameter {name!r}" for name in sorted(declared - present)]
        violations += [f"unknown parameter {name!r}" for name in sorted(present - declared, key=str)]
        violations += [msg for s in self.specs
                       if s.name in present and (msg := s.check_value(assignment[s.name]))]
        if violations:
            raise InvalidPointError(violations)
        return self._make_point(tuple([assignment[name] for name in self._names]))

    def _make_point(self, values: tuple[Value, ...]) -> TrialPoint:
        """The point with these values in spec order, which the space produced itself.

        Callers build values with tuple() of a list, which allocates the exact
        size. tuple() of a generator or map resizes a larger tuple instead, so
        the points it makes are never drawn from CPython's per-size tuple free
        list, which then fills with freed points and holds their memory.
        """
        return TrialPoint._of(self._names, values)

    def default_point(self) -> TrialPoint:
        return self._make_point(tuple([s.default for s in self.specs]))

    def point_key(self, point: TrialPoint) -> tuple[Value, ...]:
        """A point's hashable identity, its values; InvalidPointError for another space's."""
        if point.names != self._names:
            raise InvalidPointError([f"point parameters {list(point.names)} "
                                     f"are not the space's {list(self._names)}"])
        return point.values

    # -- unit-cube codec ----------------------------------------------------

    def encode_point(self, point: TrialPoint) -> np.ndarray:
        """Encode a point of this space into the unit cube, coordinates in spec order."""
        import numpy as np
        return np.array([s.encode_value(v) for s, v in zip(self.specs, self.point_key(point))],
                        dtype=float)

    def decode_vector(self, u: Iterable[float]) -> TrialPoint:
        """Decode any real vector of length d into a valid snapped point.

        Coordinates are clamped to [0, 1]; then every kind, a categorical as its index
        lattice, decodes by one rule: ties round up on the non-negative lattice index.
        """
        import numpy as np
        vec = np.asarray(list(u), dtype=float)
        if vec.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected vector of length {self.dimension}, got shape {vec.shape}"
            )
        return self._make_point(tuple([s.decode_unit(float(u)) for s, u in zip(self.specs, vec)]))

    # -- exhaustive grid ------------------------------------------------------

    def iter_grid(self) -> Iterator[TrialPoint]:
        """Every grid point, last spec varying fastest, built one at a time."""
        return (self._make_point(combo)
                for combo in itertools.product(*(s.grid_values() for s in self.specs)))

    # -- rendering -----------------------------------------------------------

    def render_config_args(self, point: TrialPoint) -> list[str]:
        """One -D<name>=<value> per parameter of a point of this space, in spec order."""
        return [f"-D{s.name}={s.render(v)}" for s, v in zip(self.specs, self.point_key(point))]


# --- parameter file parsing ---------------------------------------------------

_KV_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(.*)$")

_NUMERIC_KEYS = {"min", "max", "step", "default", "unit"}  # unit= is a note: accepted, dropped
_CAT_KEYS = {"values", "default"}


def parse_param_file(text: str) -> ParamSpace:
    """Parse the line-oriented parameter file format into a ParamSpace.

    Blank lines and '#' comments are ignored. Each remaining line:

        <name> int min=<num> max=<num> step=<num> [default=<num>] [unit=<str>]
        <name> float min=<num> max=<num> step=<num> [default=<num>] [unit=<str>]
        <name> cat values=<v1>,<v2>,... [default=<v>]

    Raises:
        ParamSyntaxError: malformed line (with its 1-based line number).
        DuplicateParamError: two lines declare the same name (raised by ParamSpace).
        EmptySpaceError: no parameter lines remain (raised by ParamSpace).
        DomainError: bounds or defaults violate spec invariants.
    """
    specs: list[ParamSpec] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParamSyntaxError(line_no, f"expected '<name> <kind> ...', got {line!r}")
        name, kind = tokens[0], tokens[1]
        if kind not in (KIND_INT, KIND_FLOAT, KIND_CAT):
            raise ParamSyntaxError(line_no, f"unknown kind {kind!r}")
        kv: dict[str, str] = {}
        for tok in tokens[2:]:
            m = _KV_TOKEN.match(tok)
            if not m:
                raise ParamSyntaxError(line_no, f"expected key=value token, got {tok!r}")
            key, value = m.group(1), m.group(2)
            if key in kv:
                raise ParamSyntaxError(line_no, f"duplicate key {key!r}")
            kv[key] = value

        try:
            spec = _spec_from_tokens(name, kind, kv, line_no)
        except ValueError as exc:
            raise ParamSyntaxError(line_no, str(exc)) from exc
        except DomainError as exc:
            raise DomainError(f"line {line_no}: {exc}") from exc
        specs.append(spec)
    return ParamSpace(specs)


def _spec_from_tokens(name: str, kind: str, kv: dict[str, str], line_no: int) -> ParamSpec:
    if kind == KIND_CAT:
        unknown = set(kv) - _CAT_KEYS
        if unknown:
            raise ParamSyntaxError(line_no, f"unexpected keys for cat: {sorted(unknown)}")
        if "values" not in kv:
            raise ParamSyntaxError(line_no, "cat parameter needs values=")
        values = tuple(v for v in kv["values"].split(",") if v != "")
        return ParamSpec(name=name, kind=kind, values=values, default=kv.get("default"))

    unknown = set(kv) - _NUMERIC_KEYS
    if unknown:
        raise ParamSyntaxError(line_no, f"unexpected keys for {kind}: {sorted(unknown)}")
    for req in ("min", "max", "step"):
        if req not in kv:
            raise ParamSyntaxError(line_no, f"{kind} parameter needs {req}=")
    number = _wholenum if kind == KIND_INT else float
    lower, upper, step = (number(kv[k]) for k in ("min", "max", "step"))
    default = number(kv["default"]) if "default" in kv else None
    return ParamSpec(name=name, kind=kind, lower=lower, upper=upper, step=step, default=default)
