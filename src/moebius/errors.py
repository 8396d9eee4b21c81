"""Exception taxonomy shared by the whole package.

Each class maps to one CLI exit code, see cli.py.
"""


class MoebiusError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MoebiusError):
    """Malformed literal, file, or flag value.  CLI exit code 2."""


class PreconditionError(MoebiusError):
    """Structurally valid input that violates an operation's contract.  CLI exit code 3."""


class ResourceGuardError(MoebiusError):
    """Requested computation exceeds a hard size/time guard.  CLI exit code 4."""


def check_guard(what: str, cost: int, bound: int) -> int:
    """Return cost, or raise ResourceGuardError when it exceeds bound.

    Every resource guard calls this with a cost read off a closed form
    before the work it bounds starts.  The message names what is bounded,
    the bound, and the cost itself only when it is short."""
    if cost > bound:
        # str() of an int past 4,300 digits raises ValueError, and a cost
        # past 64 bits tells the reader no more than its length
        bits = cost.bit_length()
        shown = cost if bits <= 64 else f"a {bits}-bit number"
        raise ResourceGuardError(f"{what} is {shown}, over the bound {bound}")
    return cost


class InternalCheckError(MoebiusError):
    """A cross-check the library runs on its own output failed.  CLI exit code 5."""
