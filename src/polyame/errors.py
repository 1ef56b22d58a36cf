"""Exception types shared across the package."""


class PolyameError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedPrime(PolyameError):
    """A modulus the requested construction cannot use (e.g. p = 2 for
    Reed-Solomon generators, whose dimension (p + 1)/2 must be an integer)."""


class NotPrime(UnsupportedPrime):
    """A modulus that must be prime is composite (or < 2). Subclass of
    UnsupportedPrime: a composite is in particular not a usable prime."""


class UnknownSolid(PolyameError):
    """Requested Platonic solid name is not one of the five."""


class NoOppositeFace(PolyameError):
    """The solid has no antipodal face for the given one (tetrahedron)."""


class TooLarge(PolyameError):
    """An enumeration or dense object exceeds the configured budget."""


class ZeroState(PolyameError):
    """A contraction annihilated every amplitude; the face tensors are
    incompatible with the incidence structure."""


class NotNormalized(PolyameError):
    """State vector norm differs from 1 beyond tolerance."""


class InvalidCode(PolyameError, ValueError):
    """A generator or quadratic form that does not define a code or
    stabilizer state: its modulus or length disagrees with the state's, its
    rows are dependent, or the form is malformed."""


class InvalidCut(PolyameError, IndexError):
    """A cut that is not a proper, nonempty block of distinct sites of the
    state it is applied to."""


class BadSpectrum(PolyameError, ArithmeticError):
    """A Schmidt spectrum that is not a probability distribution: a
    significantly negative eigenvalue, or a sum away from 1."""


class BadStateFile(PolyameError, ValueError):
    """A state file whose header or payload is malformed or over budget."""


class InvalidContraction(PolyameError, ValueError):
    """A contraction whose mode, face assignments (each face once, each with
    a tensor of one site per vertex, plus the hovering site in hovering
    mode, all of one d), hovering position or face order does not fit, or
    one a routine does not support (the hovering reference takes qubits)."""
