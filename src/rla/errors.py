"""Exception types shared across the package, and _shown for their messages.

InputError subclasses signal bad configuration or malformed input files and
map to CLI exit code 1. Everything else raised from a running simulation
(currently AllLinksFailedError) maps to exit code 2.
"""


def _shown(value, width: int = 40) -> str:
    """value's repr for a message, cut to its two ends past width characters; an int
    past 3 x width bits is shown by its size and never meets sys.get_int_max_str_digits()."""
    if isinstance(value, int) and value.bit_length() > 3 * width:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:  # value holds an int past sys.get_int_max_str_digits()
        return f"a {type(value).__name__} holding an int too long to show"
    return text if len(text) <= width else f"{text[:width // 2]}...{text[-(width // 2):]}"


class RlaError(Exception):
    """Base class for all package errors."""


class InputError(RlaError):
    """Invalid configuration, parameters, or input files."""


class EmptyGroupError(InputError):
    """An aggregation group needs at least one link."""


class DuplicatePriorityError(InputError):
    """Two links in one group share a priority value."""


class BadParameterError(InputError):
    """A link or engine parameter is out of range."""


class ZeroCostError(InputError):
    """Inverse-cost weighting requires every link cost to be positive."""


class ParseError(InputError):
    """A CSV input could not be parsed.

    Carries the 1-based line number (header is line 1) and a reason string.
    """

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class EmptyTraceError(InputError):
    """A demand trace needs at least one sample."""


class BadWindowError(InputError):
    """Invalid peak window or levels for a synthetic trace."""


class AllLinksFailedError(RlaError):
    """Every link in the group is down; the single-master policy cannot forward."""
