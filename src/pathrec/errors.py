"""Exception types shared across the package."""


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
    """A cold-entity profile names an entity the graph already holds."""


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
