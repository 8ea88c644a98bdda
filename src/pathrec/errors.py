"""Exception types shared across the package, and the value type check
every config dataclass runs before its range checks."""

import dataclasses


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


class NotAnItem(PathRecError):
    """An item-only operation was applied to a non-item entity."""


class EmptyGraph(PathRecError):
    """An operation requires at least one triplet."""


class EmptyUser(PathRecError):
    """A user has no interactions where at least one is required."""


class MissingEmbedding(PathRecError):
    """An entity or relation has no row in the embedding table."""


class EmptyCandidates(PathRecError):
    """A candidate set that must be non-empty is empty."""


class InvalidAction(PathRecError):
    """An action is not valid in the current path state."""


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


def check_field_types(config, where: str = ""):
    """Raise InvalidSpec unless each field of the config dataclass holds a
    value of its default's type: an int may stand for a float, a list for
    a tuple of ints. ``where`` names the config in the message (its class
    name by default). Configs read from JSON and built in Python share it."""
    for f in dataclasses.fields(config):
        value, default = getattr(config, f.name), f.default
        if isinstance(default, tuple):
            ok = isinstance(value, (list, tuple)) and all(is_int(v) for v in value)
        elif isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, int):
            ok = is_int(value)
        elif isinstance(default, float):
            ok = is_int(value) or isinstance(value, float)
        else:
            ok = isinstance(value, type(default))
        if not ok:
            kind = "a list of ints" if isinstance(default, tuple) else type(default).__name__
            raise InvalidSpec(f"{where or type(config).__name__}.{f.name} must be {kind}, "
                              f"got {value!r}")
