"""Exception types shared across modules."""


class ArrangeError(Exception):
    """Base class for every package-specific error."""


class NotAdmissible(ArrangeError):
    """A flat's codimension is not a multiple of the member codimension."""


class NotRankOne(ArrangeError):
    """Operation is only defined for codimension-one (hypersurface) models."""
