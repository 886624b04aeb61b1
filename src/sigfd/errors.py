"""Exception hierarchy for the signature recognition pipeline.

Every failure mode that crosses a module boundary gets its own class so
callers can react to the contract that was violated rather than parsing
message strings.  All classes derive from SigfdError; the CLI maps any
SigfdError to a data/processing exit code.  A parameter of the wrong
type or out of range is a `ValueError` (or the class named for it below)
when its config is built; `_is_int` and `_is_real` are the type rules.
"""


def _is_int(value) -> bool:
    """An int that is not a bool: `True` passes `isinstance(_, int)` but is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or a float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class SigfdError(Exception):
    """Base class for all library errors."""


# --- imaging ---------------------------------------------------------------

class IoError(SigfdError):
    """File could not be read or written."""


class FormatError(SigfdError):
    """File contents violate the expected on-disk format."""


class BadWindow(SigfdError):
    """Median window is not an odd integer >= 1."""


class TooFewPixels(SigfdError):
    """Foreground has fewer than two pixels, orientation is undefined."""


class BadTarget(SigfdError):
    """Requested output geometry is invalid for the operation."""


# --- wavelet ---------------------------------------------------------------

class OddDimension(SigfdError):
    """Plane has an odd (or too small) extent along a transform axis."""


class BadLevels(SigfdError):
    """Decomposition depth is not supported by the image dimensions."""


class MalformedDecomposition(SigfdError):
    """Subband planes are inconsistent with the declared level structure."""


# --- descriptor ------------------------------------------------------------

class BadLength(SigfdError):
    """Sequence length violates the power-of-two / retained-count contract."""


class DegenerateDescriptor(SigfdError):
    """Normalizing coefficient is too small to divide by."""


# --- metrics ---------------------------------------------------------------

class LengthMismatch(SigfdError):
    """Distance operands are not 1-D vectors of equal nonzero length."""


class DegenerateInput(SigfdError):
    """A measure's denominator vanishes for these operands."""


# --- recognition -----------------------------------------------------------

class MetaMismatch(SigfdError):
    """Descriptor parameters disagree with the gallery's parameters."""


class DuplicateSample(SigfdError):
    """(identity, sample_id) already enrolled."""


class EmptyGallery(SigfdError):
    """Operation requires at least one enrolled template."""


class UnknownIdentity(SigfdError):
    """Claimed identity has no templates in the gallery."""


class InsufficientSamples(SigfdError):
    """Dataset cannot satisfy the requested train/test split."""
