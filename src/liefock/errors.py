"""Exception types shared across the package, and the readers of outside
values: `exact_number` for a number from a config, a state file or
`--params`, `real_number` and `complex_number` for one read as a float or a
complex, `whole_number` for a count or index, and `configure` for a
parameter object, so that a malformed value raises ConfigError naming its
field. The CLI maps config problems to exit 2, numeric contract violations
to 3 and resource guards to 4.
"""

import cmath
import inspect
import sys
from fractions import Fraction

WHOLE_PARAMS = frozenset({"N", "L", "cutoff", "modes", "num"})  # read by whole_number in `configure`


class ConfigError(ValueError):
    """Invalid configuration / schema violation. Carries the offending field path."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


def exact_number(value, field) -> Fraction:
    """An outside number read exactly: an int, a float through its repr (0.9
    is 9/10), a Fraction, or a rational string such as "7/2", within the
    float range. Anything else (a bool, NaN, null, a list) raises
    ConfigError naming `field`."""
    try:
        number = None if isinstance(value, bool) else Fraction(str(value) if isinstance(value, float) else value)
    except (TypeError, ValueError, ZeroDivisionError):
        number = None
    if number is None or abs(number) > sys.float_info.max:
        raise ConfigError(f"{field} must be a finite number or a rational string, got {value!r}", field=field)
    return number


def real_number(value, field) -> float:
    """An outside real: an exact_number as a float. A float reads as itself
    (its repr round-trips, and -0.0 keeps its sign), so "1/2" and 0.5 read
    as the same float."""
    number = exact_number(value, field)
    return float(value) if isinstance(value, float) else float(number)


def complex_number(value, field) -> complex:
    """An outside complex: a finite complex string such as "1+0.5j", else a real_number."""
    try:
        z = complex(value) if isinstance(value, str) else None
    except ValueError:
        z = None
    return z if z is not None and cmath.isfinite(z) else real_number(value, field)


def whole_number(value, field) -> int:
    """An outside count or index: an exact number whose denominator is 1, so
    6, 6.0, "6" and "6.0" read as 6, and 2.5, "7/2" and true raise
    ConfigError naming `field`."""
    try:
        number = exact_number(value, field)
    except ConfigError:
        number = None
    if number is None or number.denominator != 1:
        raise ConfigError(f"{field} must be a whole number, got {value!r}", field=field)
    return int(number)


def lookup(table, name, what):
    """table[name] for a name from outside; an unknown one raises ConfigError listing the known names."""
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}; available: {', '.join(sorted(table))}")
    return table[name]


def named(field, fn, *args, **kwargs):
    """fn(*args, **kwargs) for values from outside whose range fn fixes: a
    ValueError it raises without a field becomes a ConfigError naming
    `field` (unless that is None)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        if field is None or getattr(exc, "field", None) is not None:
            raise
        raise ConfigError(str(exc), field) from exc


def given(params, what):
    """The field naming a parameter object's names, "`what` parameter(s) a, b", or None for none."""
    return f"{what} parameter{'s' * (len(params) > 1)} {', '.join(params)}" if params else None


def configure(fn, params, what):
    """fn(**params) for a parameter object from outside. A name fn does not
    take, or a required one that is missing, raises ConfigError naming it
    (as "`what` parameter name"); each name in WHOLE_PARAMS is read by
    whole_number. A value fn refuses (a ValueError without a field, such as
    a cutoff of 0) raises ConfigError naming the parameters given."""
    taken = inspect.signature(fn).parameters
    for key in params:
        if key not in taken:
            raise ConfigError(f"unknown {what} parameter {key!r}; known: {', '.join(taken)}", f"{what} parameter {key}")
    for key, p in taken.items():
        if p.default is p.empty and key not in params:
            raise ConfigError(f"missing {what} parameter {key!r}", f"{what} parameter {key}")
    read = {k: whole_number(v, f"{what} parameter {k}") if k in WHOLE_PARAMS else v for k, v in params.items()}
    return named(given(params, what), fn, **read)


class InfeasibleSectorError(ValueError):
    """A total-number constraint that no occupation tuple can satisfy."""


class StateNotInBasisError(KeyError):
    """Lookup of an occupation tuple that is not an element of the basis."""


class DegenerateGeneratorsError(ValueError):
    """Generator set is numerically linearly dependent; lists the suspects."""

    def __init__(self, labels):
        self.labels = list(labels)
        super().__init__(
            "generator set is linearly dependent; involved: " + ", ".join(self.labels)
        )


class NumericContractError(RuntimeError):
    """A numeric guarantee (hermiticity, unitarity, ...) was violated."""


class ResourceGuardError(RuntimeError):
    """Projected problem size exceeds the configured dense-solver limit."""


class TruncationLeakageWarning(UserWarning):
    """State has accumulated weight near a truncated basis boundary."""
