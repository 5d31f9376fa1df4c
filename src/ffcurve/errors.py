"""Typed errors of the library's mathematical checks and of its parser."""


class CertificateError(Exception):
    """A certificate that an exact answer rests on failed to verify."""


class ParseError(Exception):
    """Malformed expression; position points at the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return "parse error at position %d: %s" % (self.position, self.message)
