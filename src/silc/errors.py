"""The exceptions of the CLI exit-code contract: input errors exit 2, a
failed cross-check exits 3.  Kept apart from the modules that raise them,
so the CLI catches them without importing those modules."""


class RootDataError(ValueError):
    """Invalid root datum or mismatched arguments."""


class CharacterError(ValueError):
    pass


class QuasimapError(ValueError):
    pass


class InconsistencyError(RuntimeError):
    """A twist table contradicts an identity it must satisfy, such as the
    normalization of its base coefficient."""
