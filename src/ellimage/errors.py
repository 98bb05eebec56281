"""Exception types shared across the package."""


class EllimageError(Exception):
    pass


class ModulusMismatchError(EllimageError):
    "Operands live over different moduli."


class NotInvertibleError(EllimageError):
    "Matrix (or scalar) is not a unit mod ell."


class EnumerationCapError(EllimageError):
    "A table the computation holds (elements, orbit, cosets, memo, fibre) passed the --max-enum cap."


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
