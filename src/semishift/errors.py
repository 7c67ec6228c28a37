"""Exception types shared across the package, and the bounds on input and work.

The CLI lifts Python's 4300-digit limit on int text so that exact values
of any size print, and that limit also guarded against int parsing that
is quadratic in the digits (an 800000-digit p ran 34 s).  Every integer
or rational the package reads from text is therefore held to
``MAX_RATIONAL_CHARS`` characters first: enough for, e.g., a 5000-digit
numerator over a 5001-digit denominator.  Work that grows exponentially
with a radius or a prime is held to ``MAX_PATTERNS`` before it starts, and
``too_many_patterns`` is the one rule for the n^k full patterns on k sites.
"""

MAX_RATIONAL_CHARS = 16_000
# The most full patterns one ball scan may list, and the most matrix entries
# per generator a counterexample chain may build: every pattern's mass is
# held in memory, and 3^13 of them took 275 MB in one scan.
MAX_PATTERNS = 2**22
# The most bits a lattice chain's window mass may gain from powers of P: the
# window's span times log2 of the lcm of P's denominators.  At this bound the
# slowest window tried, 16385 sites 2 apart, took 0.4 s of CPU.
MAX_WINDOW_BITS = 2**16
# The most characters of a refused input that an error message quotes.
SHOWN_CHARS = 64


class SemishiftError(Exception):
    """Base class for all library errors."""


class ParseError(SemishiftError):
    """Raised when a serialized object cannot be read."""


class ValidationError(SemishiftError):
    """Raised when an input object violates a structural precondition."""


class MembershipError(ValidationError):
    """Raised when a word lies outside the subsemigroup in play."""


class FactorizationError(ValidationError):
    """Raised when a pattern does not factor through a given morphism."""


class InvalidChain(ValidationError):
    """Raised when an operation requires a structurally valid chain."""


class SigmaIncomplete(ValidationError):
    """Raised when extension needs every positive generator in Sigma."""


class DeltaOutOfRange(ValidationError):
    """Raised when a perturbation parameter leaves its open interval."""


class NonInvertibleModP(ValidationError):
    """Raised when a matrix is singular modulo the chosen prime."""


class EmptyWord(ValidationError):
    """Raised when an operation needs a nonempty word."""


class NotInvariant(SemishiftError):
    """Raised when an operation requires an invariant chain."""


class NotPeriodic(SemishiftError):
    """Raised when an operation requires a periodic orbit."""


class BudgetExhausted(SemishiftError):
    """Raised when a randomized search fails within its trial budget."""


class NoWitness(SemishiftError):
    """Raised when a searched-for witness provably does not exist."""


class OracleNotNormalized(SemishiftError):
    """Raised when a measure oracle's block masses do not sum to one."""


def shown(value: object) -> str:
    """``repr(value)``, or for a longer one its first SHOWN_CHARS characters and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= SHOWN_CHARS:
        return repr(value)
    return f"{text[:SHOWN_CHARS]!r}... ({len(text)} characters)"


def too_many_patterns(n: int, k: int) -> bool:
    """Do n symbols on k sites give more than MAX_PATTERNS full patterns?  No large power is formed."""
    return n > 1 and (k >= MAX_PATTERNS.bit_length() or n**k > MAX_PATTERNS)


def bounded_int(text: str) -> int:
    """``int(text)``, refused with ParseError before it runs if the text is too long."""
    if len(text) > MAX_RATIONAL_CHARS:
        raise ParseError(f"integer of {len(text)} characters is longer than {MAX_RATIONAL_CHARS}")
    return int(text)
