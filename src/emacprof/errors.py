"""Exception taxonomy shared by all modules.

Every error raised on purpose derives from :class:`EmacProfError`, so
callers (and the command line driver) can map failures to a small set of
outcomes: input validation problems, numeric blow-ups during simulation,
and degenerate calibration fits.
"""


class EmacProfError(Exception):
    """Base class for all errors raised by this package."""


# --- validation of network descriptions, inputs, and files ---

class SchemaError(EmacProfError):
    """A manifest, container, or option is structurally malformed."""


class ShapeMismatch(EmacProfError):
    """Declared shapes, weight sizes, or tensors do not line up."""


class MaskViolation(EmacProfError):
    """A locally connected weight is nonzero outside its receptive field."""


class UnknownRef(EmacProfError):
    """A layer references a weight block the container does not hold."""


class RateOutOfRange(EmacProfError):
    """A rate is out of range: a stochastic encoding value outside the unit
    interval, or an analytic spike rate that is NaN, infinite or negative."""


# --- decoding ---

class EmptyRaster(EmacProfError):
    """First-spike decoding got an empty or non-2-D raster."""


class EmptyHistory(EmacProfError):
    """Membrane-voltage decoding got an empty history."""


# --- simulation ---

class NonFiniteState(EmacProfError):
    """Neuron state left the finite range (bad weights or unstable step)."""


class EmptyDataset(EmacProfError):
    """A dataset run was requested with no samples."""


# --- energy accounting ---

class MissingRates(EmacProfError):
    """The analytic estimate lacks a spiking rate it needs."""


class TraceNetMismatch(EmacProfError):
    """A spike trace does not belong to the network it was paired with."""


# --- calibration ---

class RankDeficient(EmacProfError):
    """Too few or collinear observations; the fit has no unique solution."""


class IllConditioned(EmacProfError):
    """The design matrix is numerically unusable for a two-parameter fit."""


class MissingMeasurement(EmacProfError):
    """An observation lacks the measured energy it is supposed to carry."""
