"""The ten diagram families and their admissibility rules.

A family is a constraint on the underlying set partition of a diagram:
its nonplanar core's block rule (fewest nodes in a block, most nodes in a
block, most nodes on one side of a block) and, for the five planar
families, planarity.  Decorations never affect membership.
"""
from __future__ import annotations

import enum
from math import inf

from .errors import PreconditionError


class Family(enum.Enum):
    PARTITION = "partition"
    PLANAR_PARTITION = "planar-partition"
    ROOK_BRAUER = "rook-brauer"
    MOTZKIN = "motzkin"
    BRAUER = "brauer"
    TEMPERLEY_LIEB = "temperley-lieb"
    ROOK = "rook"
    PLANAR_ROOK = "planar-rook"
    SYMMETRIC = "symmetric"
    PLANAR_SYMMETRIC = "planar-symmetric"

    @property
    def planar(self) -> bool:
        return self in _PLANAR_CORE

    @property
    def nonplanar_core(self) -> "Family":
        """The family with the planarity constraint dropped."""
        return _PLANAR_CORE.get(self, self)

    @property
    def block_rule(self) -> tuple[int, float, float]:
        """(fewest nodes in a block, most nodes in a block, most nodes on
        one side of a block), set by the nonplanar core."""
        return _BLOCK_RULE[self.nonplanar_core]


# each planar family and the nonplanar core it restricts
_PLANAR_CORE = {
    Family.PLANAR_PARTITION: Family.PARTITION,
    Family.MOTZKIN: Family.ROOK_BRAUER,
    Family.TEMPERLEY_LIEB: Family.BRAUER,
    Family.PLANAR_ROOK: Family.ROOK,
    Family.PLANAR_SYMMETRIC: Family.SYMMETRIC,
}

_BLOCK_RULE = {
    Family.PARTITION: (1, inf, inf),
    Family.ROOK_BRAUER: (1, 2, inf),
    Family.BRAUER: (2, 2, inf),
    Family.ROOK: (1, 2, 1),
    Family.SYMMETRIC: (2, 2, 1),
}

# accepted spellings on the CLI
ALIASES = {
    "partition": Family.PARTITION,
    "planar-partition": Family.PLANAR_PARTITION,
    "pp": Family.PLANAR_PARTITION,
    "rook-brauer": Family.ROOK_BRAUER,
    "robr": Family.ROOK_BRAUER,
    "motzkin": Family.MOTZKIN,
    "brauer": Family.BRAUER,
    "temperley-lieb": Family.TEMPERLEY_LIEB,
    "tl": Family.TEMPERLEY_LIEB,
    "rook": Family.ROOK,
    "planar-rook": Family.PLANAR_ROOK,
    "symmetric": Family.SYMMETRIC,
    "planar-symmetric": Family.PLANAR_SYMMETRIC,
}


def family_from_name(name: str) -> Family:
    try:
        return ALIASES[name.strip().lower()]
    except KeyError:
        raise PreconditionError(f"unknown family {name!r}") from None


def admissible_lambdas(f: Family, n: int) -> list[int]:
    """Through-strand counts that occur for (n, n)-diagrams of the family.

    Brauer-type families preserve the parity of n; the symmetric families
    only have bijective diagrams.
    """
    least, step = _lambda_range(f, n)
    return list(range(n, least - 1, -step))


def check_lambda(f: Family, n: int, lam: int) -> None:
    """Raise unless lam is in ``admissible_lambdas(f, n)``, decided by
    arithmetic: a dims table checks each of its n + 1 entries."""
    least, step = _lambda_range(f, n)
    if not (least <= lam <= n and (n - lam) % step == 0):
        raise PreconditionError(
            f"lambda={lam} is not admissible for {f.value} at n={n}"
        )


def _lambda_range(f: Family, n: int) -> tuple[int, int]:
    """(least admissible lambda, step between admissible lambdas down from n)."""
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if f in (Family.SYMMETRIC, Family.PLANAR_SYMMETRIC):
        return n, 1
    if f in (Family.BRAUER, Family.TEMPERLEY_LIEB):
        return n % 2, 2
    return 0, 1
