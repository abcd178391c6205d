"""Exception hierarchy shared by the library and the command line front end.

Each error a user can cause carries the process exit code the command line
returns for it, as ``exit_code``. An error whose ``exit_code`` is None (the
base class, ``InternalContractError``) is a bug: the command line reports it
as an internal error and lets it propagate.
"""


class MartpolyError(Exception):
    """Base class for all errors raised by this package."""

    exit_code: int | None = None


class InputError(MartpolyError):
    """Malformed user input: documents, flags, dimensions, parameters."""

    exit_code = 2


class LimitExceededError(MartpolyError):
    """A size guard refused the work, or a value was too long to print.

    The guards bound outcomes, lattice grid states, lattice value size and
    event-tree nodes.
    """

    exit_code = 3


class NotViableError(MartpolyError):
    """An operation required an arbitrage-free market and did not get one."""

    exit_code = 4


class PerturbationError(MartpolyError):
    """Terminal-value perturbation exhausted its retry budget."""

    exit_code = 5


class InternalContractError(MartpolyError):
    """A mathematically unreachable branch was taken; indicates a bug."""


_ECHO_LIMIT = 64


def quoted(value: object) -> str:
    """An outside value as echoed in an error: its repr, cut past 64 characters.

    A string is measured before quoting, any other value after. A cut value
    keeps a prefix and its full length, so megabytes of input never become
    megabytes of message.
    """
    if isinstance(value, str):
        if len(value) <= _ECHO_LIMIT:
            return repr(value)
        return f"{value[:_ECHO_LIMIT]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"
