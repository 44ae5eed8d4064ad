"""Exception types raised across the toolkit.

Every error that callers are expected to catch derives from
:class:`BbgcError`; I/O failures from the operating system are left as
``OSError``.  Malformed content (a file, a reply, a spec's values) raises
a ``BbgcError``, each loader reporting any error in its content as one
``InvalidConfigError``; a bad argument to a library call is a programming
error and raises ``ValueError``, which the CLI treats as a bug.
"""

from __future__ import annotations


class BbgcError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfigError(BbgcError):
    """A spec, model, plan or report file, or a synthetic-model
    configuration, is malformed or violates its own contract."""


# embedding geometry ---------------------------------------------------------

class ZeroVectorError(BbgcError):
    """A vector that must be normalizable has (near-)zero norm."""


class NonFiniteError(BbgcError):
    """An input contains NaN or infinity where finite values are required."""


class DimensionMismatchError(BbgcError):
    """Operands have incompatible shapes."""


class NonUnitEmbeddingError(BbgcError):
    """A stored embedding row does not have unit norm within tolerance."""


# black-box sources -----------------------------------------------------------

class SourceError(BbgcError):
    """Base class for generator-source failures."""


class SourceUnavailableError(SourceError):
    """The external generator process or endpoint cannot be reached."""


class MalformedResponseError(SourceError):
    """The generator replied with bytes that do not parse as embeddings."""


class SourceTimeoutError(SourceError):
    """The generator did not answer within the configured deadline."""


# sample store ----------------------------------------------------------------

class StoreFormatError(BbgcError):
    """Base class for store parsing failures."""


class BadMagicError(StoreFormatError):
    """The file does not begin with the store magic bytes."""


class VersionMismatchError(StoreFormatError):
    """The store was written by an incompatible format version."""


class TruncatedStoreError(StoreFormatError):
    """The file ends in the middle of the header or a record."""


# diagnosis -------------------------------------------------------------------

class DiagnosisError(BbgcError):
    """Base class for diagnosis precondition violations."""


class EmptyCollectionError(DiagnosisError):
    """An anchor or pool collection that must be non-empty is empty."""


class OverlappingCollectionsError(DiagnosisError):
    """Anchors and pool share a latent; the score would be biased."""


class SizesOutOfRangeError(DiagnosisError):
    """A requested prefix size exceeds the available samples."""


class TooFewAnchorsError(DiagnosisError):
    """Population statistics need at least two anchors."""


# calibration -----------------------------------------------------------------

class CalibrationError(BbgcError):
    """Base class for calibration precondition violations."""


class KTooLargeError(CalibrationError):
    """More mixture components requested than fit samples available."""


class DegenerateDataError(CalibrationError):
    """Fit data has fewer distinct points than requested clusters."""


class EmptyClusterError(CalibrationError):
    """A cluster assignment left some cluster without members."""


class EmptyModeListError(CalibrationError):
    """Reweighting was asked to suppress an empty list of modes."""


class ZeroDenseCountError(CalibrationError):
    """The dense mode has no neighbors, so no density ratio exists."""


class EmptyStoreError(CalibrationError):
    """A store that must contain samples is empty."""


class AcceptanceStallError(CalibrationError):
    """Rejection sampling failed to accept anything for too long."""
