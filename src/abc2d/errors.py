"""The library's exception type for domain failures.

The library raises two exception types.  A :class:`DomainError` is a
physics/domain failure (invalid input regime, no bound states, unsupported
flux case, ...), and the CLI prints its message and exits 2.  A ValueError
is an invalid argument (a negative quantum number, a grid of fewer than two
points, a non-finite wavenumber, ...), and the CLI prints its message and
exits 1, as for a usage error.  Each message names the condition.
Verification failures use exit code 3 and are not exceptions.
"""


class DomainError(Exception):
    """An input or result outside the domain of the closed forms or oracles."""
