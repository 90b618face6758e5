"""The exceptions of the CLI exit-code contract: input errors exit 2, a
window that cannot be certified or a failed cross-check exits 3.  Kept apart
from the modules that raise them, so the CLI catches them without importing
those modules."""


class RootDataError(ValueError):
    """Invalid root datum or mismatched arguments."""


class CharacterError(ValueError):
    pass


class QuasimapError(ValueError):
    pass


class WindowExhaustedError(RuntimeError):
    """The requested window needs candidates outside the explored depth."""


class InconsistencyError(RuntimeError):
    """The re-verification of the twist identity for a second weight failed."""
