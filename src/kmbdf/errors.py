"""Exception types shared across the package, and `Node`, the base of the
frozen config dataclasses, which raises them."""

import functools
import math
import numbers
import sys
import types
import typing
from dataclasses import fields


class KmbdfError(Exception):
    """Base class for all package errors."""


class ShapeError(KmbdfError, ValueError):
    """Inputs have inconsistent or invalid dimensions."""


class DomainError(KmbdfError, ValueError):
    """Inputs contain values outside the allowed domain (NaN, Inf, ...)."""


class ConfigError(KmbdfError, ValueError):
    """A configuration value violates its invariants."""


class DataError(KmbdfError, ValueError):
    """A data file could not be parsed or is malformed."""


_NO = object()
_FLOAT_MAX = sys.float_info.max  # compared with: float() of a huge int overflows


def _members(tp) -> tuple:
    """The alternatives of a union annotation; (tp,) for any other."""
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    return typing.get_args(tp) if union else (tp,)


def _typed(tp, value):
    """`value` as the non-union annotation `tp`, or _NO.  Integers pass for
    floats, booleans for no number, a list for a tuple; floats are finite."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        return value if isinstance(value, str) and value in args else _NO
    if origin is tuple:
        items = [_typed(args[0], v) for v in value] if isinstance(value, (list, tuple)) else [_NO]
        return _NO if _NO in items else tuple(items)
    if tp in (int, float):
        number = numbers.Integral if tp is int else numbers.Real
        ok = isinstance(value, number) and not isinstance(value, bool)
        if ok and tp is float:  # a NumPy float32 compared with _FLOAT_MAX would overflow
            ok = abs(value) <= _FLOAT_MAX if isinstance(value, int) else math.isfinite(value)
        return tp(value) if ok else _NO
    return value if isinstance(value, tp) else _NO


@functools.cache
def node_fields(cls) -> tuple:
    """(field, alternatives of its annotation) for each field of the
    dataclass `cls`; the string annotations are resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f, _members(hints[f.name])) for f in fields(cls))


class Node:
    """Base of the frozen config dataclasses.  However a node is built, each
    field is checked against its annotation and stored normalised (`_typed`),
    then `_check` tests the ranges; a failure raises ConfigError."""

    def __post_init__(self):
        for f, members in node_fields(type(self)):
            raw = getattr(self, f.name)
            value = next((v for v in (_typed(m, raw) for m in members) if v is not _NO), _NO)
            if value is _NO:
                text = (m.__name__ if isinstance(m, type) else repr(m) for m in members)
                raise ConfigError(f"{f.name} must be {' | '.join(text)}, got {raw!r}")
            object.__setattr__(self, f.name, value)
        self._check()

    def _check(self):
        """Range checks across the node's typed fields."""
