"""Exception types shared across the package."""


class EllimageError(Exception):
    pass


class ModulusMismatchError(EllimageError):
    "Operands live over different moduli."


class NotInvertibleError(EllimageError):
    "Matrix (or scalar) is not a unit mod ell."


class EnumerationCapError(EllimageError):
    "Group enumeration exceeded the configured cap; use formula-based paths."


class SearchBudgetError(EllimageError):
    "A search exhausted its budget or hit an unsupported structure; hard error, never a silent truncation."


class CertificateError(EllimageError):
    "A computed certificate (conjugating matrix, section, counterexample) failed its verification."


class LabelError(EllimageError):
    "Malformed subgroup label."


class DataFileError(EllimageError):
    "Syntax or content error in a generator data file."

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = "line %d: %s" % (lineno, message)
        super().__init__(message)
        self.lineno = lineno
