"""Exception types shared across the package, and the one loader of a
config from JSON.

A config dataclass checks its values in ``__post_init__``, first their
types (``check_field_types``), then their ranges, so no config exists
unchecked. ``config_from_json`` builds a run config's sections and the
configs stored in artifacts; it checks keys and types, named by their
JSON path, before it builds the config.
"""

import dataclasses
import sys


class PathRecError(Exception):
    """Base class for all package errors."""


class ParseError(PathRecError):
    """A triplet or schema file is malformed."""


class SchemaViolation(PathRecError):
    """An entity or triplet contradicts the declared schema."""


class UnknownEntity(PathRecError):
    """An entity id or (type, name) key is not registered."""


class UnknownUser(PathRecError):
    """A recommendation was requested for an entity that is not a user."""


class EmptyGraph(PathRecError):
    """An operation requires at least one triplet."""


class EmptyUser(PathRecError):
    """A user has no interactions where at least one is required."""


class MissingEmbedding(PathRecError):
    """An entity or relation has no row in the embedding table."""


class EmptyCandidates(PathRecError):
    """A candidate set that must be non-empty is empty."""


class EmptyProfile(PathRecError):
    """A cold-entity profile has no usable declarations."""


class DuplicateEntity(PathRecError):
    """An entity is named twice: a cold-entity profile names an entity the
    graph already holds, or a graph is extended by a key it has."""


class MissingNeighborEmbedding(PathRecError):
    """A declared neighbor of a cold entity has no embedding row."""


class EmptyColdSet(PathRecError):
    """A cold-item metric was requested with an empty cold-item set."""


class InvalidSpec(PathRecError):
    """A generator or run configuration is invalid."""


class InvalidAxisValue(PathRecError):
    """A sweep axis or axis value is not supported."""


class StageError(PathRecError):
    """A pipeline stage failed; carries the stage tag for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """An int (not a bool) or float that a finite float holds: not NaN,
    not infinite, not an int past the float range."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def is_names(value) -> bool:
    """A JSON list of strings."""
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


def check_field_types(cls, values, where: str = ""):
    """Raise InvalidSpec unless each value of ``values``, keyed by a field
    name of the config dataclass ``cls``, has the type of the field's
    default: an int may stand for a float, which must be finite (an int
    within the float range), a list for a tuple of ints.
    ``where`` names the config in the message (the class name by default)."""
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        value, default = values[f.name], f.default
        if isinstance(default, tuple):
            ok = isinstance(value, (list, tuple)) and all(is_int(v) for v in value)
        elif isinstance(default, int):
            ok = is_int(value)
        elif isinstance(default, float):
            ok = is_finite(value)
        else:
            ok = isinstance(value, type(default))
        if not ok:
            kind = ("a list of ints" if isinstance(default, tuple) else
                    "a finite float" if isinstance(default, float) else type(default).__name__)
            raise InvalidSpec(f"{where or cls.__name__}.{f.name} must be {kind}, "
                              f"got {value!r}")


def check_keys(section, allowed: tuple[str, ...], where: str):
    """Raise InvalidSpec unless ``section`` is a JSON object whose keys are
    all ``allowed``."""
    if not isinstance(section, dict):
        raise InvalidSpec(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise InvalidSpec(f"unknown key(s) in {where}: {', '.join(unknown)}")


def config_from_json(cls, section, where: str):
    """The config dataclass ``cls`` of its JSON object ``section``, a list
    read as a tuple. Unknown keys and values of the wrong type raise
    InvalidSpec naming ``where``, the section's JSON path; the config then
    checks its ranges as it is built."""
    check_keys(section, tuple(f.name for f in dataclasses.fields(cls)), where)
    check_field_types(cls, section, where)
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in section.items()})
