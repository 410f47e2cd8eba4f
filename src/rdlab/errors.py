"""Exception types shared across the package."""


class RdlabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(RdlabError):
    """Element with (near-)zero measure."""


class UnsupportedFeatureError(RdlabError):
    """Requested element type / degree is not built."""


class InadmissibleStateError(RdlabError):
    """State left the admissible set (e.g. nonpositive density or pressure)."""


class InvalidGraphError(RdlabError):
    """Element graph is disconnected or otherwise unusable."""


class ConservationDefectError(RdlabError):
    """Residuals handed to flux recovery do not sum to zero.

    Carries the per-component ``defect`` vector and, if known, the ``element``.
    """

    def __init__(self, message, defect, element=None):
        super().__init__(message)
        self.defect, self.element = defect, element


class InfeasibleCorrectionError(RdlabError):
    """Pressure/entropy correction system has no solution for this element."""


class StepFailureError(RdlabError):
    """Time step produced an inadmissible state; carries element id."""

    def __init__(self, message, element=None):
        super().__init__(message)
        self.element = element


class DiagnosticError(RdlabError):
    """A diagnostic could not extract the requested quantity."""
