"""Exception taxonomy shared by the whole package.

EXIT_CODES gives each class its CLI exit code and stderr prefix.
"""


class MoebiusError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MoebiusError):
    """Malformed literal, file, or flag value."""


class PreconditionError(MoebiusError):
    """Structurally valid input that violates an operation's contract."""


class ResourceGuardError(MoebiusError):
    """Requested computation exceeds a hard size/time guard."""


class InternalCheckError(MoebiusError):
    """A cross-check the library runs on its own output failed."""


EXIT_CODES = {
    ParseError: (2, "parse error"),
    PreconditionError: (3, "precondition violated"),
    ResourceGuardError: (4, "resource guard"),
    InternalCheckError: (5, "internal check failed"),
}

# str() of an int past 4,300 digits raises ValueError; one under
# 2^14,000 has at most 4,215
PRINTABLE_BITS = 14_000

# handle exponents rewritten in one expansion, its terms, and the series
# terms a closed component's handle count adds
HANDLE_GUARD = 100_000


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
