"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed text or JSON input."""


class InstanceTooLarge(Exception):
    """Input exceeds a brute-force guard; refusing rather than hanging."""


class NotAModel(ValueError):
    """Claimed minor model violates disjointness, connectivity or adjacency."""


class PoolExhausted(RuntimeError):
    """A projector or connector ran out of reserve vertices mid-phase."""


class NotInLift(ValueError):
    """Cycle refers to host edges that no lift of the given subset contains."""


class FormulaUndefined(ValueError):
    """Bound formula hits a non-positive radicand or undefined logarithm."""


class HostTooSmall(ValueError):
    """Host order is below the builder's guaranteed-success threshold."""
