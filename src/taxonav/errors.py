"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so new failure kinds should
subclass one of the existing branches rather than raising bare exceptions.
"""


class DiscoveryError(Exception):
    """Base class for every error this package raises deliberately."""


class DataError(DiscoveryError):
    """Bad input data: unreadable files, malformed records, dangling ids."""


class SchemaError(DataError):
    """A persisted artifact does not match its expected schema."""


class ConfigError(DiscoveryError):
    """Invalid or contradictory configuration."""


class GatewayError(DiscoveryError):
    """Base class for chat/embedding gateway failures."""


class TransportError(GatewayError):
    """The backend could not be reached or returned a server-side failure.

    ``retry_after`` is the wait in seconds the server asked for, if any.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class MalformedReplyError(GatewayError):
    """The backend answered, but the reply is structurally unusable."""


class ReplyParseError(MalformedReplyError):
    """A reply that does not parse into what the caller asked for: an index
    list with no digits, no JSON object, a design that breaks its rules.

    ``LlmGateway.ask`` re-asks once on this error only, so a backend failure
    (a plain MalformedReplyError) is never mistaken for a bad answer.
    """


class DesignError(DiscoveryError):
    """Category design or refinement failed even after its re-ask."""
