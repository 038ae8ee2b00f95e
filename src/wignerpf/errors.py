"""Exception hierarchy.

Every error the library raises deliberately derives from :class:`Error` and
carries an ``exit_code`` used by the command-line front end:

    2  unusable input: parse errors, bad shapes, size guards, |pf| out of range
    3  input matrix is not conjugate-normal within tolerance
    4  the generalized Pfaffian is undefined for the input
    5  a tolerance or spectral-consistency check failed
"""


class Error(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(Error, ValueError):
    """Input data is malformed: bad shape, non-finite entries, size guards."""

    exit_code = 2


class ParseError(InputError):
    """A matrix document could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotConjugateNormalError(Error):
    """The matrix fails the conjugate-normality test.

    ``residual`` is the scale-free defect ||A^T A* - A A^H|| / ||A||^2.
    """

    exit_code = 3

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class PfUndefinedError(Error):
    """The generalized Pfaffian does not exist for this matrix.

    Raised for a non-singular matrix whose spectrum contains a positive real
    1x1 block (equivalently, whose antisymmetric part is singular while the
    matrix itself is not), and for non-singular odd-dimensional input.
    """

    exit_code = 4


class SpectralConsistencyError(Error):
    """The computed spectral data violates a structural requirement.

    Examples: a negative real eigenvalue cluster of odd multiplicity, a
    complex cluster without a conjugate partner of equal multiplicity, or a
    mu value inconsistent with |omega|.  Usually signals tolerance
    misconfiguration rather than a library bug.
    """

    exit_code = 5


class NotNormalError(SpectralConsistencyError):
    """A matrix handed to the normal-matrix eigensolver is not normal."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ReconstructionError(SpectralConsistencyError):
    """U Sigma U^T failed to reproduce the input within tolerance."""
