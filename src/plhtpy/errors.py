"""Exception types shared across the toolkit."""


class PlhtpyError(Exception):
    """Base class for all toolkit errors."""


class DuplicateSimplex(PlhtpyError):
    pass


class AffinelyDependent(PlhtpyError):
    pass


class OverlappingSimplices(PlhtpyError):
    pass


class PointOutsidePolyhedron(PlhtpyError):
    pass


class NotClosed(PlhtpyError):
    pass


class NotSubcomplex(PlhtpyError):
    pass


class NotConnected(PlhtpyError):
    pass


class NotNormal(PlhtpyError):
    pass


class NotNormalInput(NotNormal):
    pass


class NotSimplicial(PlhtpyError):
    pass


class CarrierClash(PlhtpyError):
    pass


class FixedSetMismatch(PlhtpyError):
    pass


class RoundsExhausted(PlhtpyError):
    def __init__(self, message, failing_vertices=()):
        super().__init__(message)
        self.failing_vertices = tuple(failing_vertices)


class Incompatible(PlhtpyError):
    pass


class StartNotInA(PlhtpyError):
    pass


class BaseVertexMismatch(PlhtpyError):
    pass


class NotCertifiablySimplyConnected(PlhtpyError):
    pass


class InvalidGroup(PlhtpyError):
    """Abelian group data with a negative rank or bad torsion orders."""


class NotAChainComplex(PlhtpyError):
    """Boundary matrices whose composite is not zero."""


class ValueOutOfRange(PlhtpyError):
    """A value or homotopy time outside [0, 1], or a negative round count."""


class FormatError(PlhtpyError):
    """Malformed SCX / SCX-M input."""
