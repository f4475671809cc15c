"""Exceptions shared across the package."""


class InputError(ValueError):
    """Bad user-supplied data or configuration (CLI exit code 2)."""
