"""Exception hierarchy shared by the library and the command line front end."""


class MartpolyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MartpolyError):
    """Malformed user input: documents, flags, dimensions, parameters."""


class LimitExceededError(MartpolyError):
    """A size guard refused the work, or a value was too long to print.

    The guards bound outcomes, lattice grid states, lattice value size and
    event-tree nodes.
    """


class NotViableError(MartpolyError):
    """An operation required an arbitrage-free market and did not get one."""


class PerturbationError(MartpolyError):
    """Terminal-value perturbation exhausted its retry budget."""


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
