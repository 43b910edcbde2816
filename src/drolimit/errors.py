"""The package's one refusal, which the command line reports with exit 2."""


class InputError(ValueError):
    """Bad input to an operation or a run: a configuration, model or argument
    out of range, malformed or inconsistent."""
