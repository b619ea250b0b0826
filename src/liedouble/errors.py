"""Exception types shared across the package."""


class LieDoubleError(Exception):
    """Base class for all package errors."""


class DivisionByZero(LieDoubleError, ZeroDivisionError):
    """Division by an exactly-zero scalar."""


class NotUnivariate(LieDoubleError, ValueError):
    """Operation requires a polynomial in at most one variable."""


class ValueTooLarge(LieDoubleError, ValueError):
    """A value has more digits than the interpreter can print."""


class NegativePower(LieDoubleError, ValueError):
    """A polynomial raised to a negative power."""


class ZeroPolynomial(LieDoubleError, ValueError):
    """The leading term or the rational roots of the zero polynomial."""


class InexactDivision(LieDoubleError, ArithmeticError):
    """``Poly.exact_div`` by a polynomial that does not divide."""


class NotAScalar(LieDoubleError, TypeError):
    """A value that is not an int, a Fraction, a Poly or a Scalar where a
    scalar is needed, or a divisor of a Poly that is not a Poly."""


class NotRational(LieDoubleError, ValueError):
    """``Scalar.as_fraction`` of a value that carries a variable."""


class ParseError(LieDoubleError, ValueError):
    """Malformed scalar literal, element expression, or catalog file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnreadableFile(LieDoubleError, OSError):
    """A catalog, map or matrix path that cannot be opened for reading: it
    does not exist, is a directory, or is not readable."""


class JacobiViolation(LieDoubleError):
    """A bracket table fails the Jacobi identity.

    Carries the offending 0-based basis triple and the nonzero Jacobiator
    coordinates; the message names the triple by its basis labels."""

    def __init__(self, i, j, k, coords, labels):
        self.triple = (i, j, k)
        self.coords = coords
        super().__init__(
            f"Jacobi identity fails on basis triple ({labels[i]}, {labels[j]}, {labels[k]})")


class AlgebraMismatch(LieDoubleError, ValueError):
    """Operands belong to different algebras."""


class ArityMismatch(LieDoubleError, TypeError):
    """Wrong number or type of slots for an identity evaluation."""


class IncompatibleQuantifier(LieDoubleError, ValueError):
    """Quantifier not admitted by the requested identity."""


class UnknownIdentity(LieDoubleError, ValueError):
    """No bracket identity under the requested code."""


class UnknownQuantifier(LieDoubleError, ValueError):
    """No quantifier under the requested name, or ``fixed`` without its
    payload."""


class NotClosed(LieDoubleError):
    """A commutator escapes the span of the given generators."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(
            f"commutator of generators {i + 1} and {j + 1} lies outside the span"
        )


class ShapeMismatch(LieDoubleError, ValueError):
    """Matrices or vectors whose number or sizes do not fit the operation:
    no matrix at all, ragged rows, a matrix that is not square where one is
    needed, shapes that do not chain or differ, a vector or right-hand side
    whose length is not the column or row count, a coordinate count that is
    not the dimension, or an index out of range."""


class BadTable(LieDoubleError, ValueError):
    """A bracket table and labels that do not describe an algebra: labels
    that are not one distinct name per basis vector, parameter names that
    are labels too, an index out of range, or a nonzero [e_i, e_i]."""


class NotIndependent(LieDoubleError):
    """Given generators are linearly dependent."""


class DenominatorVanishes(LieDoubleError, ZeroDivisionError):
    """A parameter assignment annihilates a scalar denominator."""


class NotADerivation(LieDoubleError):
    """A linear map fails the Leibniz rule.

    Carries the first 0-based basis pair where the rule breaks."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(
            f"Leibniz rule fails on basis pair {(pair[0] + 1, pair[1] + 1)}"
        )


class NotNilpotent(LieDoubleError):
    """Operation requires a nilpotent algebra."""


class NotParameterFree(LieDoubleError, ValueError):
    """Operation requires a parameter-free algebra; a parametric one is
    refused rather than answered generically."""


class UnknownDoubleKind(LieDoubleError, ValueError):
    """``build_double`` asked for a kind of double other than "derivation"
    and "rbracket"."""


class UnknownName(LieDoubleError, KeyError):
    """No catalog entry, or no basis vector, under the requested name."""

    def __init__(self, name, what="catalog entry named"):
        self.name = name
        super().__init__(f"no {what} {name!r}")

    def __str__(self):
        return self.args[0]


class ExcludedParameterValue(LieDoubleError, ValueError):
    """Assignment hits a parameter value excluded by the entry."""


class BadAssignment(LieDoubleError, ValueError):
    """Assignments to a catalog entry or ``LieAlgebra.specialize`` that miss
    a size, name a parameter it lacks, or cover only some of its scalars."""


class DuplicateName(LieDoubleError, ValueError):
    """Two catalog entries share a name."""


class OptionConflict(LieDoubleError, ValueError):
    """Command-line options that exclude or need each other: ``--z`` with
    ``--map``, a payload for a sweep, a fixed quantifier without its
    payload, or ``rmatrix`` without exactly one operator."""
