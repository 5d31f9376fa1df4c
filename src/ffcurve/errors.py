"""Typed errors of the library's mathematical checks."""


class CertificateError(Exception):
    """A certificate that an exact answer rests on failed to verify."""
